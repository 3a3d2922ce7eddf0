open Vax_arch

type fact = {
  f_op : Opcode.t;
  f_len : int;
  f_cc_dead : int;
  f_consts : (int * Word.t) list;
}

let n_bit = 8
let z_bit = 4
let v_bit = 2
let c_bit = 1
let all_cc = n_bit lor z_bit lor v_bit lor c_bit
let nzv = n_bit lor z_bit lor v_bit

type t = {
  tbl : (int, fact) Hashtbl.t;
  mutable dead_reg_writes : int;
  mutable summary_calls : int;
  mutable summary_fallbacks : int;
  mutable solver_visits : int;
  mutable solver_updates : int;
}

let create () =
  { tbl = Hashtbl.create 512; dead_reg_writes = 0; summary_calls = 0;
    summary_fallbacks = 0; solver_visits = 0; solver_updates = 0 }

(* Two images of the same workload may place different code at the same
   virtual address (e.g. two VMs); a colliding entry keeps only what
   both agree on, and conflicting decodes keep nothing. *)
let add t ~va fact =
  match Hashtbl.find_opt t.tbl va with
  | None -> Hashtbl.replace t.tbl va fact
  | Some old when old.f_op = fact.f_op && old.f_len = fact.f_len ->
      Hashtbl.replace t.tbl va
        {
          fact with
          f_cc_dead = old.f_cc_dead land fact.f_cc_dead;
          f_consts = List.filter (fun p -> List.mem p old.f_consts) fact.f_consts;
        }
  | Some _ -> Hashtbl.remove t.tbl va

(* The lookup: the opcode/length guard rejects a fact when the bytes at
   [va] do not decode as the analyzed image said. *)
let find t ~va ~op ~len =
  match Hashtbl.find_opt t.tbl va with
  | Some f when f.f_op = op && f.f_len = len -> Some f
  | _ -> None
