(* The differential trap-prediction oracle.

   Static side: every code image of a workload is analyzed (Cfg) and each
   candidate instruction site gets its predicted trap kinds (Classify).
   Runtime side: the microcode's trap observer reports every VM-emulation
   trap, privileged-instruction fault, and modify fault with the faulting
   instruction's PC.  An observed event at a (pc, kind) pair the static
   pass did not predict raises [Unpredicted] immediately — there are no
   catch-all handlers between the microcode and the harness, so a wrong
   prediction fails the run loudly.  Predicted-but-never-hit pairs are
   reported as coverage. *)

open Vax_cpu
module Disasm = Vax_asm.Disasm

(* Aggregate vaxflow statistics when the static pass ran flow-sensitively
   (see Absdom).  [pairs_flowless] is what the flow-insensitive pass
   would have predicted for the same images — the precision baseline. *)
type flow_stats = {
  fs_images : int;
  fs_sites : int;  (* candidate sites across all images *)
  fs_fact_sites : int;  (* sites refined by a flow fact *)
  fs_rounds : int;
  fs_visits : int;
  fs_updates : int;
  fs_resolved : int;
  fs_xresolved : int;  (* resolved into a sibling image of the workload *)
  fs_unresolved : int;
  fs_escapes : int;
  fs_mode_sound : bool;  (* false => refinement was disabled (the valve) *)
  fs_pairs_flowless : int;
}

module Pc_table = Hashtbl.Make (Int)

type t = {
  name : string;
  predicted : int Pc_table.t;  (* pc -> kind bitmask *)
  hits : int Pc_table.t;  (* pc -> bitmask of kinds observed *)
  mutable observed : int;  (* total observed events *)
  mutable unpredicted : int;  (* events off the predicted table (tolerant) *)
  mutable flow : flow_stats option;  (* present for flow-sensitive passes *)
}

exception Unpredicted of string * State.trap_kind * int

let () =
  Printexc.register_printer (function
    | Unpredicted (name, kind, pc) ->
        Some
          (Printf.sprintf
             "Vax_analysis.Oracle.Unpredicted: %s trap at %#x not predicted \
              by the static pass (oracle %S)"
             (State.trap_kind_name kind) pc name)
    | _ -> None)

let kind_bit = function
  | State.Trap_vm_emulation -> 1
  | State.Trap_privileged -> 2
  | State.Trap_modify -> 4

let bitmask kinds = List.fold_left (fun m k -> m lor kind_bit k) 0 kinds

let create ~name =
  {
    name;
    predicted = Pc_table.create 512;
    hits = Pc_table.create 64;
    observed = 0;
    unpredicted = 0;
    flow = None;
  }

let find0 tbl pc =
  match Pc_table.find tbl pc with m -> m | exception Not_found -> 0

let predict t ~pc kinds =
  let m = bitmask kinds in
  if m <> 0 then Pc_table.replace t.predicted pc (find0 t.predicted pc lor m)

(* flowless predictions for [sites] *)
let add_sites t ~mode sites =
  List.iter
    (fun i -> predict t ~pc:i.Disasm.address (Classify.predict ~mode i))
    sites

let popcount m = (m land 1) + ((m lsr 1) land 1) + ((m lsr 2) land 1)

let predicted_pairs t =
  Pc_table.fold (fun _ m n -> n + popcount m) t.predicted 0

(* Flow-sensitive static pass over a workload-wide [Analysis]: escaped
   addresses are pooled across the whole workload (a vector cell written
   by one image can dispatch into another), each image is abstractly
   interpreted, and each site's prediction is refined by its mode fact.
   The refinement only ever drops trap kinds at a site, so the
   flow-sensitive predicted table is a subset of the flowless one.  If
   the settle did not converge or any image has an unresolved computed
   control transfer, refinement is disabled wholesale ([fs_mode_sound] =
   false): a missed edge could reach any image in any mode. *)
let of_analysis ~name ~mode (a : Analysis.t) =
  let t = create ~name and flowless = create ~name in
  let mode_sound = Analysis.mode_sound a in
  let sites = ref 0 and fact_sites = ref 0 in
  List.iter2
    (fun cfg0 r ->
      let sites0 = Cfg.all_sites cfg0 in
      add_sites flowless ~mode sites0;
      List.iter
        (fun (i : Disasm.insn) ->
          incr sites;
          let flow_fact =
            if mode_sound then
              match Hashtbl.find_opt r.Absdom.facts i.Disasm.address with
              | Some s ->
                  incr fact_sites;
                  Some (Absdom.flow_fact_of s)
              | None -> None
            else None
          in
          predict t ~pc:i.Disasm.address
            (Classify.predict ~mode ?flow:flow_fact i))
        (* the final CFG is the plain one unless computed targets added
           entries *)
        (if r.Absdom.cfg == cfg0 then sites0 else Cfg.all_sites r.Absdom.cfg))
    a.Analysis.cfgs a.Analysis.results;
  let sum f = List.fold_left (fun n r -> n + f r.Absdom.stats) 0 a.Analysis.results in
  t.flow <-
    Some
      {
        fs_images = List.length a.Analysis.cfgs;
        fs_sites = !sites;
        fs_fact_sites = !fact_sites;
        fs_rounds = sum (fun s -> s.Absdom.rounds);
        fs_visits = sum (fun s -> s.Absdom.visits);
        fs_updates = sum (fun s -> s.Absdom.updates);
        fs_resolved = sum (fun s -> s.Absdom.resolved);
        fs_xresolved = sum (fun s -> s.Absdom.xresolved);
        fs_unresolved = sum (fun s -> s.Absdom.unresolved);
        fs_escapes = sum (fun s -> s.Absdom.escapes);
        fs_mode_sound = mode_sound;
        fs_pairs_flowless = predicted_pairs flowless;
      };
  t

(* [flow:false] is the flow-insensitive pass: CFG recovery and
   classification only. *)
let of_images ?(flow = true) ~name ~mode (images : Cfg.image list) =
  if flow then of_analysis ~name ~mode (Analysis.of_images images)
  else begin
    let t = create ~name in
    List.iter
      (fun img -> add_sites t ~mode (Cfg.all_sites (Cfg.analyze img)))
      images;
    t
  end

let of_asm_images ?flow ~name ~mode images =
  of_images ?flow ~name ~mode
    (List.map (fun (n, img) -> Cfg.of_asm n img) images)

(* A fresh oracle sharing an existing oracle's static analysis.  The
   predicted table is read-only after construction, so it can be shared
   between runs; hit tracking and the event counter start fresh.  Lets a
   harness amortize the static pass over repeated runs of the same
   workload. *)
let with_predictions ~name src =
  {
    name;
    predicted = src.predicted;
    hits = Pc_table.create 64;
    observed = 0;
    unpredicted = 0;
    flow = src.flow;
  }

(* [strict:false] tolerates events off the predicted table (counting
   them instead of raising): fault-injection runs perturb control flow
   into places no sound static pass can foresee — a reflected machine
   check landing on an uninstalled guest vector, say. *)
let observe ?(strict = true) t kind pc =
  t.observed <- t.observed + 1;
  let b = kind_bit kind in
  if find0 t.predicted pc land b = 0 then
    if strict then raise (Unpredicted (t.name, kind, pc))
    else t.unpredicted <- t.unpredicted + 1
  else
    let h = find0 t.hits pc in
    if h land b = 0 then Pc_table.replace t.hits pc (h lor b)

let unpredicted_events t = t.unpredicted

let install ?strict t (st : State.t) =
  st.State.trap_observer <- Some (fun kind pc -> observe ?strict t kind pc)

type coverage = {
  predicted_pairs : int;  (* distinct (site, kind) pairs predicted *)
  hit_pairs : int;  (* pairs observed at least once at runtime *)
  observed_events : int;  (* total runtime events (all predicted) *)
}

let coverage t =
  {
    predicted_pairs = Pc_table.fold (fun _ m n -> n + popcount m) t.predicted 0;
    hit_pairs = Pc_table.fold (fun _ m n -> n + popcount m) t.hits 0;
    observed_events = t.observed;
  }

let pp_coverage ppf c =
  Format.fprintf ppf "%d/%d predicted (site, kind) pairs hit, %d events"
    c.hit_pairs c.predicted_pairs c.observed_events

(* vaxflow gauges for the metrics registry ("analysis.flow.*"). *)
let flow_metrics t =
  match t.flow with
  | None -> [ ("enabled", 0) ]
  | Some f ->
      [
        ("enabled", 1);
        ("pairs", predicted_pairs t);
        ("pairs_flowless", f.fs_pairs_flowless);
        ("pairs_pruned", f.fs_pairs_flowless - predicted_pairs t);
        ("sites", f.fs_sites);
        ("fact_sites", f.fs_fact_sites);
        ("rounds", f.fs_rounds);
        ("visits", f.fs_visits);
        ("updates", f.fs_updates);
        ("resolved_targets", f.fs_resolved);
        ("cross_image_resolved", f.fs_xresolved);
        ("unresolved_targets", f.fs_unresolved);
        ("escapes", f.fs_escapes);
        ("mode_sound", if f.fs_mode_sound then 1 else 0);
      ]
