(* Control-flow recovery over a guest image: recursive descent from the
   image's entry points (origin plus every assembler label), with a
   resynchronizing linear sweep as the fallback covering the bytes the
   descent cannot reach.  Works on raw bytes through Disasm — no CPU
   state needed. *)

open Vax_arch
module Asm = Vax_asm.Asm
module Disasm = Vax_asm.Disasm

type image = {
  name : string;
  base : int;  (* execution virtual address of byte 0 *)
  code : bytes;
  entries : int list;  (* absolute addresses of recursive-descent roots *)
  entry_mode : Mode.t option;
      (* access mode in which control first enters the image at its
         origin, when the workload declares one; seeds the vaxflow
         abstract-mode lattice (None = unknown = all modes) *)
}

let of_asm ?entry_mode name (img : Asm.image) =
  {
    name;
    base = img.Asm.image_origin;
    code = img.Asm.code;
    entries =
      List.sort_uniq compare
        (img.Asm.image_origin :: List.map snd img.Asm.symbols);
    entry_mode;
  }

(* instructions that never fall through to the next byte *)
let is_terminator = function
  | Opcode.Brb | Opcode.Brw | Opcode.Jmp | Opcode.Rsb | Opcode.Ret
  | Opcode.Rei | Opcode.Halt | Opcode.Bpt ->
      true
  | _ -> false

(* statically-resolvable control-flow targets: branch displacements, and
   absolute-mode or PC-relative displacement-mode destinations of
   JMP/JSB/CALLS.  A non-deferred displacement off PC evaluates against
   the updated PC, i.e. the end of that operand's specifier. *)
let static_targets (i : Disasm.insn) =
  match i.Disasm.opcode with
  | None -> []
  | Some op ->
      let branches =
        List.filter_map
          (function Disasm.Branch_dest t -> Some t | _ -> None)
          i.Disasm.specs
      in
      let resolve spec end_off =
        match spec with
        | Disasm.Absolute a -> Some a
        | Disasm.Disp { rn = 15; disp; deferred = false; _ } ->
            Some (i.Disasm.address + end_off + disp)
        | _ -> None
      in
      let abs =
        match (op, i.Disasm.specs, Disasm.spec_ends i) with
        | (Opcode.Jmp | Opcode.Jsb), [ s ], [ e ] ->
            Option.to_list (resolve s e)
        | Opcode.Calls, [ _; s ], [ _; e ] -> Option.to_list (resolve s e)
        | _ -> []
      in
      branches @ abs

type block = {
  b_start : int;
  b_insns : Disasm.insn list;  (* in address order *)
  b_body : Disasm.insn list;  (* [b_insns] without its last instruction *)
  b_last : Disasm.insn;  (* the instruction that decides [b_succs] *)
  b_succs : int list;  (* static successor addresses *)
}

type diag =
  | Unreachable of { at : int; count : int }
      (** a run of bytes no reachable instruction covers (data, padding,
          or code only reachable through computed addresses) *)
  | Overlap of { at : int; prev : int }
      (** a reachable instruction starting inside the previous one *)

type t = {
  image : image;
  reachable : (int, Disasm.insn) Hashtbl.t;  (* keyed by absolute address *)
  swept : Disasm.insn list;  (* resynchronizing linear sweep, whole image *)
  blocks : block list;
  diags : diag list;
}

let analyze image =
  let lo = image.base and hi = image.base + Bytes.length image.code in
  let reachable = Hashtbl.create 256 in
  (* every reachable instruction with its static targets, computed once *)
  let found = ref [] in
  let queue = Queue.create () in
  List.iter (fun e -> if e >= lo && e < hi then Queue.add e queue) image.entries;
  while not (Queue.is_empty queue) do
    let addr = Queue.pop queue in
    if addr >= lo && addr < hi && not (Hashtbl.mem reachable addr) then
      match Disasm.decode_one image.code ~pos:(addr - lo) ~address:addr with
      | None -> ()  (* descended into data; the sweep still covers it *)
      | Some i ->
          let ts = static_targets i in
          Hashtbl.replace reachable addr i;
          found := (i, ts) :: !found;
          List.iter (fun s -> Queue.add s queue) ts;
          (match i.Disasm.opcode with
          | Some op when is_terminator op -> ()
          | _ -> Queue.add (addr + i.Disasm.length) queue)
  done;
  let sorted =
    List.sort
      (fun ((a : Disasm.insn), _) ((b : Disasm.insn), _) ->
        compare a.Disasm.address b.Disasm.address)
      !found
  in
  (* diagnostics: byte coverage and overlapping decodes *)
  let covered = Bytes.make (hi - lo) '\000' in
  List.iter
    (fun ((i : Disasm.insn), _) ->
      for k = i.Disasm.address - lo to i.Disasm.address - lo + i.Disasm.length - 1
      do
        if k < hi - lo then Bytes.set covered k '\001'
      done)
    sorted;
  let diags = ref [] in
  let run_start = ref (-1) in
  for k = 0 to hi - lo do
    let unreach = k < hi - lo && Bytes.get covered k = '\000' in
    if unreach && !run_start < 0 then run_start := k
    else if (not unreach) && !run_start >= 0 then begin
      diags := Unreachable { at = lo + !run_start; count = k - !run_start } :: !diags;
      run_start := -1
    end
  done;
  let rec overlaps = function
    | ((a : Disasm.insn), _) :: ((((b : Disasm.insn), _) :: _) as rest) ->
        if b.Disasm.address < a.Disasm.address + a.Disasm.length then
          diags :=
            Overlap { at = b.Disasm.address; prev = a.Disasm.address } :: !diags;
        overlaps rest
    | _ -> ()
  in
  overlaps sorted;
  (* basic blocks over the reachable set *)
  let ends_block ((i : Disasm.insn), ts) =
    ts <> []
    || match i.Disasm.opcode with Some op -> is_terminator op | None -> true
  in
  let leaders = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace leaders e ()) image.entries;
  List.iter
    (fun (((i : Disasm.insn), ts) as it) ->
      List.iter (fun t -> Hashtbl.replace leaders t ()) ts;
      if ends_block it then
        Hashtbl.replace leaders (i.Disasm.address + i.Disasm.length) ())
    sorted;
  let blocks = ref [] in
  let cur = ref [] in  (* current block's instructions, most recent first *)
  let flush () =
    match !cur with
    | [] -> ()
    | ((last : Disasm.insn), ts) :: earlier ->
        let body = List.rev_map fst earlier in
        let succs =
          ts
          @
          match last.Disasm.opcode with
          | Some op when is_terminator op -> []
          | _ -> [ last.Disasm.address + last.Disasm.length ]
        in
        let insns = body @ [ last ] in
        blocks :=
          {
            b_start = (List.hd insns).Disasm.address;
            b_insns = insns;
            b_body = body;
            b_last = last;
            b_succs = succs;
          }
          :: !blocks;
        cur := []
  in
  let prev_end = ref min_int in
  List.iter
    (fun (((i : Disasm.insn), _) as it) ->
      if Hashtbl.mem leaders i.Disasm.address || i.Disasm.address <> !prev_end
      then flush ();
      cur := it :: !cur;
      prev_end := i.Disasm.address + i.Disasm.length;
      if ends_block it then flush ())
    sorted;
  flush ();
  let swept = Disasm.decode_all ~resync:true image.code ~base:image.base in
  {
    image;
    reachable;
    swept;
    blocks = List.rev !blocks;
    diags = List.rev !diags;
  }

(* every candidate instruction site: recursive-descent reachable sites
   unioned with the resynchronizing linear sweep (real instructions only,
   not [.byte] padding).  The union is deliberately a superset: for the
   differential oracle a spurious extra site only shows up as
   predicted-but-never-hit coverage, while a missed site would be a false
   alarm. *)
let all_sites t =
  let swept_site (j : Disasm.insn) acc =
    if j.Disasm.opcode <> None then j :: acc else acc
  in
  (* both inputs are in address order: the blocks partition the
     reachable set in order, and the sweep is linear; a reachable site
     shadows the sweep's decode at the same address *)
  let rec merge acc reach swept =
    match (reach, swept) with
    | _, [] -> List.rev_append acc reach
    | [], j :: swept' -> merge (swept_site j acc) [] swept'
    | (i : Disasm.insn) :: reach', (j : Disasm.insn) :: swept' ->
        if j.Disasm.address < i.Disasm.address then
          merge (swept_site j acc) reach swept'
        else if j.Disasm.address = i.Disasm.address then
          merge (i :: acc) reach' swept'
        else merge (i :: acc) reach' swept
  in
  merge [] (List.concat_map (fun b -> b.b_insns) t.blocks) t.swept
