(* Seeded inputs of the end-to-end benchmark.

   A seed fixes everything the simulator is given: which programs run,
   in which process order, and how large each one is.  The simulator
   only ever sees the resulting [Minivms.built] images.

   Sizes are jittered in pairs.  Every program kind of a single-machine
   workload runs as two processes of sizes [total/2 * (1 + j)] and
   [total/2 * (1 - j)], with [j] drawn from [-0.2, 0.2].  A seed thus
   changes how each kind's work is split and interleaved across
   processes, but not its total, so the instruction mix — and with it
   the host-time metrics — stays comparable between seeds.  For the
   same reason every fleet batch holds each catalog workload once in
   each mode; the seed draws each batch's queue order. *)

open Vax_vmos
open Vax_workloads
module Fleet = Vax_fleet.Fleet

type kind = Editing | Transaction | Compute | Calls | Syscall | Ipl | Probe

let kind_name = function
  | Editing -> "editing"
  | Transaction -> "transaction"
  | Compute -> "compute"
  | Calls -> "calls"
  | Syscall -> "syscall_storm"
  | Ipl -> "ipl_storm"
  | Probe -> "probe_storm"

let program kind ~ident n =
  match kind with
  | Editing -> Programs.editing ~ident ~rounds:n
  | Transaction -> Programs.transaction ~ident ~count:n
  | Compute -> Programs.compute ~ident ~iterations:n
  | Calls -> Programs.calls ~ident ~rounds:n
  | Syscall -> Programs.syscall_storm ~iterations:n
  | Ipl -> Programs.ipl_storm ~iterations:n
  | Probe -> Programs.probe_storm ~iterations:n

type single = {
  mode : Fleet.mode;
  procs : (kind * int) list;  (** processes in scheduling order, with sizes *)
}

type fleet = {
  seed : int;
  jobs : (string * Fleet.mode) array;  (** a batch, in catalog order *)
}

type t = Single of single | Fleet of fleet

(* Total size of each program kind, split over its two processes.  At
   scale 1 one run takes about an eighth of a second on an
   uncontended 2.1 GHz x86-64 core (README.md). *)
let singles =
  [
    ( "mix-vm",
      Fleet.Vm,
      [ (Editing, 400); (Transaction, 270); (Compute, 27_000) ] );
    ("compute-bare", Fleet.Bare, [ (Compute, 55_000); (Calls, 27_000) ]);
    ("trap-vm", Fleet.Vm, [ (Syscall, 4_200); (Ipl, 6_300); (Probe, 4_200) ]);
  ]

let names = List.map (fun (n, _, _) -> n) singles @ [ "fleet-cold" ]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [scale] divides every size of a single-machine workload (the smoke
   run uses 100); catalog workloads have fixed sizes. *)
let make ?(scale = 1) ~seed name =
  let rng = Random.State.make [| seed |] in
  if name = "fleet-cold" then
    Fleet
      {
        seed;
        jobs =
          Array.of_list
            (List.concat_map
               (fun w -> [ (w, Fleet.Bare); (w, Fleet.Vm) ])
               Catalog.names);
      }
  else
    match List.find_opt (fun (n, _, _) -> n = name) singles with
    | None -> invalid_arg ("unknown workload: " ^ name)
    | Some (_, mode, kinds) ->
        let procs =
          Array.of_list
            (List.concat_map
               (fun (k, total) ->
                 let total = max 2 (total / scale) in
                 let j = Random.State.float rng 0.4 -. 0.2 in
                 let a = max 1 (int_of_float (float_of_int total /. 2. *. (1. +. j))) in
                 let a = min a (total - 1) in
                 [ (k, a); (k, total - a) ])
               kinds)
        in
        shuffle rng procs;
        Single { mode; procs = Array.to_list procs }

(* The queue of batch [k]: a fresh order per batch, so that successive
   batches put different jobs side by side on the domains. *)
let batch_queue f k =
  let a = Array.copy f.jobs in
  shuffle (Random.State.make [| f.seed; k |]) a;
  a

let build s =
  Minivms.build
    ~programs:(List.mapi (fun i (k, n) -> program k ~ident:(i + 1) n) s.procs)
    ()

let mode_name = function Fleet.Bare -> "bare" | Fleet.Vm -> "vm"

let describe = function
  | Single s ->
      Printf.sprintf "%s: %s" (mode_name s.mode)
        (String.concat ", "
           (List.map (fun (k, n) -> Printf.sprintf "%s %d" (kind_name k) n) s.procs))
  | Fleet f ->
      Printf.sprintf "batches of %d jobs (%d catalog workloads x bare/vm), first queue: %s ..."
        (Array.length f.jobs) (List.length Catalog.names)
        (String.concat ", "
           (List.filteri (fun i _ -> i < 6)
              (Array.to_list
                 (Array.map (fun (w, m) -> w ^ "/" ^ mode_name m) (batch_queue f 0)))))
