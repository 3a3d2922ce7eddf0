(* Allocation budgets of the run loop.

   Host time is noisy; allocation is not.  A given run allocates the same
   number of words every time, so a budget on it is a performance gate
   that cannot flake.  [syscall --vm] spends most of its host time in VM
   exits (one every six guest instructions), so its allocation per guest
   instruction tracks the per-exit work of the microcode trap, the
   exception-frame push and the VMM's dispatch, emulation and re-entry.
   [compute] and [calls] run bare, almost wholly from compiled blocks,
   and [mix --vm] is the paper's mix under the VMM: together they gate
   the block engine's slots and the cold path.

   The count is [Gc.minor_words], read from Runner's [instrument] hook
   (after set-up, just before the machine runs) until the run returns.
   [Gc.counters] is not used: on OCaml 5 its minor count only advances
   at minor collections.

   Each budget is the minor words per guest instruction measured when it
   was set, rounded up to 0.1.  Lower one when its path gets cheaper;
   never raise it to admit a regression. *)

open Vax_workloads

let words_per_insn ~vm built =
  let start = ref 0. in
  let instrument _ = start := Gc.minor_words () in
  let m =
    if vm then Runner.run_vm ~instrument built
    else Runner.run_bare ~instrument built
  in
  let words = Gc.minor_words () -. !start in
  (words /. float_of_int m.Runner.instructions, m)

let check_budget ~vm ~budget ~min_insns w () =
  let built = Catalog.build w in
  (* warm: the first run initializes module-level tables *)
  ignore (words_per_insn ~vm built);
  let per_insn, m = words_per_insn ~vm built in
  let name = if vm then w ^ " --vm" else w in
  Alcotest.(check bool) "run completed" true (m.Runner.instructions > min_insns);
  if per_insn > budget then
    Alcotest.failf
      "%s allocates %.2f minor words per guest instruction, over the budget \
       of %.1f"
      name per_insn budget

let () =
  Alcotest.run "alloc"
    [
      ( "budget",
        [
          (* 15.55 measured *)
          Alcotest.test_case "syscall --vm exit path" `Quick
            (check_budget ~vm:true ~budget:15.6 ~min_insns:20_000 "syscall");
          (* 7.25 measured *)
          Alcotest.test_case "compute bare" `Quick
            (check_budget ~vm:false ~budget:7.3 ~min_insns:60_000 "compute");
          (* 5.21 measured *)
          Alcotest.test_case "calls bare" `Quick
            (check_budget ~vm:false ~budget:5.3 ~min_insns:90_000 "calls");
          (* 8.61 measured *)
          Alcotest.test_case "mix --vm" `Quick
            (check_budget ~vm:true ~budget:8.7 ~min_insns:100_000 "mix");
        ] );
    ]
