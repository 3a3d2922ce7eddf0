open Vax_arch
open Vax_mem

type t = {
  state : State.t;
  mmu : Mmu.t;
  phys : Phys_mem.t;
  clock : Cycles.t;
  engine : Exec.engine;
  bcache : Block_cache.t;
}

let create ?(variant = Variant.Standard) ?(memory_pages = 1024) ?modify_policy
    ?(engine = Exec.Blocks) () =
  let policy =
    match modify_policy with
    | Some p -> p
    | None -> (
        match variant with
        | Variant.Standard -> Mmu.Hardware_sets_m
        | Variant.Virtualizing -> Mmu.Modify_fault_policy)
  in
  let phys = Phys_mem.create ~pages:memory_pages in
  let clock = Cycles.create () in
  let mmu = Mmu.create ~policy ~phys ~clock () in
  let state = State.create ~variant ~mmu ~clock () in
  { state; mmu; phys; clock; engine; bcache = Block_cache.create () }

let load t pa image = Phys_mem.blit_in t.phys pa image

(* single-step callers read the PSL between steps: materialize any
   condition codes a block slot deferred *)
let step t =
  match t.engine with
  | Exec.Stepper -> Exec.step t.state
  | Exec.Blocks ->
      let s = Exec.step_blocks t.state t.bcache in
      State.sync_cc t.state;
      s

let run t ?max_instructions () =
  match t.engine with
  | Exec.Stepper -> Exec.run t.state ?max_instructions ()
  | Exec.Blocks -> Exec.run_blocks t.state t.bcache ?max_instructions ()
