(* Allocation budget of the VM exit path.

   Host time is noisy; allocation is not.  A given run allocates the same
   number of words every time, so a budget on it is a performance gate
   that cannot flake.  [syscall --vm] spends most of its host time in VM
   exits (one every six guest instructions), so its allocation per guest
   instruction tracks the per-exit work of the microcode trap, the
   exception-frame push and the VMM's dispatch, emulation and re-entry.

   The count is [Gc.minor_words], read from Runner's [instrument] hook
   (after set-up, just before the machine runs) until the run returns.
   [Gc.counters] is not used: on OCaml 5 its minor count only advances
   at minor collections. *)

open Vax_workloads

(* Minor words per guest instruction, measured after the change that
   removed the per-exit allocations (16.8), rounded up.  The build
   before it allocated 54.3.  Lower it when the exit path gets
   cheaper; never raise it to admit a regression. *)
let budget = 17.0

let words_per_insn built =
  let start = ref 0. in
  let instrument _ = start := Gc.minor_words () in
  let m = Runner.run_vm ~instrument built in
  let words = Gc.minor_words () -. !start in
  (words /. float_of_int m.Runner.instructions, m)

let test_syscall_vm () =
  let built = Catalog.build "syscall" in
  (* warm: the first run initializes module-level tables *)
  ignore (words_per_insn built);
  let per_insn, m = words_per_insn built in
  Alcotest.(check bool) "run completed" true (m.Runner.instructions > 20_000);
  if per_insn > budget then
    Alcotest.failf
      "syscall --vm allocates %.2f minor words per guest instruction, over \
       the budget of %.1f"
      per_insn budget

let () =
  Alcotest.run "alloc"
    [
      ( "budget",
        [ Alcotest.test_case "syscall --vm exit path" `Quick test_syscall_vm ]
      );
    ]
