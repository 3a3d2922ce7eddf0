(* Fleet engine tests: parallel-vs-serial bit-identity, input-order
   stability, crash isolation, Metrics.merge, and Runner's memoized
   static analysis: its products match the standalone passes, and two
   domains share them safely. *)

open Vax_workloads
open Vax_analysis
module Fleet = Vax_fleet.Fleet
module Metrics = Vax_obs.Metrics
module Block_facts = Vax_cpu.Block_facts

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let metrics_t = Alcotest.(list (pair string int))

(* Every catalog workload, in both modes: the full determinism surface. *)
let full_batch () =
  List.concat_map
    (fun w ->
      [
        Fleet.workload_job ~mode:Fleet.Bare ~name:(w ^ "/bare") w;
        Fleet.workload_job ~mode:Fleet.Vm ~name:(w ^ "/vm") w;
      ])
    Catalog.names

let stats_exn name = function
  | Ok (s : Fleet.job_stats) -> s
  | Error (e : Fleet.job_error) ->
      Alcotest.failf "job %s crashed: %s" name e.Fleet.error

(* The acceptance criterion: for every workload in the catalog, each
   per-job result of a [~jobs:4] run is bit-identical to the [~jobs:1]
   (serial, single-domain) run — cycles, instructions, console text,
   the whole metrics snapshot (TLB, block cache, per-vector exception
   counts, devices), and the oracle's coverage. *)
let test_parallel_matches_serial () =
  let batch = full_batch () in
  let serial = Fleet.run ~jobs:1 batch in
  let parallel = Fleet.run ~jobs:4 batch in
  check_int "serial used one domain" 1 serial.Fleet.domains;
  check_int "parallel used four domains" 4 parallel.Fleet.domains;
  check_int "same number of results" (Array.length serial.Fleet.results)
    (Array.length parallel.Fleet.results);
  Array.iteri
    (fun i (job_s, rs) ->
      let job_p, rp = parallel.Fleet.results.(i) in
      check_string "job order" job_s.Fleet.job_name job_p.Fleet.job_name;
      let s = stats_exn job_s.Fleet.job_name rs
      and p = stats_exn job_p.Fleet.job_name rp in
      let ctx fmt = job_s.Fleet.job_name ^ ": " ^ fmt in
      Alcotest.(check bool)
        (ctx "outcome") true
        (s.Fleet.outcome = p.Fleet.outcome);
      check_int (ctx "total cycles") s.Fleet.total_cycles p.Fleet.total_cycles;
      check_int (ctx "guest cycles") s.Fleet.guest_cycles p.Fleet.guest_cycles;
      check_int (ctx "monitor cycles") s.Fleet.monitor_cycles
        p.Fleet.monitor_cycles;
      check_int (ctx "instructions") s.Fleet.instructions p.Fleet.instructions;
      check_string (ctx "console") s.Fleet.console p.Fleet.console;
      Alcotest.check metrics_t (ctx "metrics snapshot") s.Fleet.metrics
        p.Fleet.metrics;
      check_int (ctx "oracle predicted pairs")
        s.Fleet.oracle.Oracle.predicted_pairs
        p.Fleet.oracle.Oracle.predicted_pairs;
      check_int (ctx "oracle hit pairs") s.Fleet.oracle.Oracle.hit_pairs
        p.Fleet.oracle.Oracle.hit_pairs;
      check_int (ctx "oracle events") s.Fleet.oracle.Oracle.observed_events
        p.Fleet.oracle.Oracle.observed_events)
    serial.Fleet.results;
  Alcotest.check metrics_t "merged metrics" serial.Fleet.merged
    parallel.Fleet.merged

(* Results land in input order however the domains interleave: job i of
   the report is job i of the batch, even when a later-queued job
   finishes first. *)
let test_input_order_stability () =
  let batch =
    List.init 9 (fun i ->
        let w = if i mod 3 = 0 then "mix" else "hello" in
        Fleet.workload_job ~mode:Fleet.Vm ~name:(Printf.sprintf "job%d" i) w)
  in
  let report = Fleet.run ~jobs:3 batch in
  check_int "all jobs reported" 9 (Array.length report.Fleet.results);
  Array.iteri
    (fun i (job, r) ->
      check_string "input order preserved" (Printf.sprintf "job%d" i)
        job.Fleet.job_name;
      ignore (stats_exn job.Fleet.job_name r))
    report.Fleet.results

(* A crash in one job (here a nonexistent-memory access escaping as an
   exception) is confined to that job's slot; neighbours complete and
   the batch report still covers every job. *)
let test_crash_isolation () =
  let boom () = raise (Vax_mem.Phys_mem.Nonexistent_memory 0xdead_beef) in
  let batch =
    [
      Fleet.workload_job ~mode:Fleet.Vm ~name:"ok-before" "hello";
      {
        Fleet.job_name = "crasher";
        spec = Fleet.Custom boom;
        max_cycles = None;
        retries = 0;
        inject = None;
      };
      Fleet.workload_job ~mode:Fleet.Vm ~name:"ok-after" "hello";
    ]
  in
  let report = Fleet.run ~jobs:2 batch in
  check_int "three results" 3 (Array.length report.Fleet.results);
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  (match report.Fleet.results.(1) with
  | _, Error (e : Fleet.job_error) ->
      Alcotest.(check bool)
        "error names the exception" true
        (contains ~sub:"Nonexistent_memory" e.Fleet.error);
      check_int "single attempt recorded" 1 e.Fleet.attempts
  | _, Ok _ -> Alcotest.fail "crasher reported Ok");
  let s0 = stats_exn "ok-before" (snd report.Fleet.results.(0)) in
  let s2 = stats_exn "ok-after" (snd report.Fleet.results.(2)) in
  check_int "neighbours identical" s0.Fleet.total_cycles s2.Fleet.total_cycles;
  Alcotest.(check (list (pair string string)))
    "crashed list" [ ("crasher", "crasher") ]
    (List.map
       (fun ((j : Fleet.job), _) -> (j.Fleet.job_name, j.Fleet.job_name))
       (Fleet.crashed report));
  Alcotest.check metrics_t "merged skips the crashed job"
    (Metrics.merge [ s0.Fleet.metrics; s2.Fleet.metrics ])
    report.Fleet.merged

let test_metrics_merge () =
  Alcotest.check metrics_t "empty" [] (Metrics.merge []);
  Alcotest.check metrics_t "singleton sorted" [ ("a", 1); ("b", 2) ]
    (Metrics.merge [ [ ("b", 2); ("a", 1) ] ]);
  Alcotest.check metrics_t "key-wise sum with missing keys"
    [ ("tlb.hits", 30); ("tlb.misses", 4); ("walks", 7) ]
    (Metrics.merge
       [
         [ ("tlb.hits", 10); ("walks", 7) ];
         [ ("tlb.hits", 20); ("tlb.misses", 4) ];
       ]);
  Alcotest.check metrics_t "three-way"
    [ ("x", 6) ]
    (Metrics.merge [ [ ("x", 1) ]; [ ("x", 2) ]; [ ("x", 3) ] ])

let bindings tbl = List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

let pc_bindings tbl =
  List.sort compare (List.of_seq (Oracle.Pc_table.to_seq tbl))

let installed_facts (m : Runner.measurement) =
  match m.Runner.machine.Vax_dev.Machine.bcache.Vax_cpu.Block_cache.facts with
  | Some f -> f
  | None -> Alcotest.fail "no liveness facts installed"

let check_same_facts ctx (a : Block_facts.t) (b : Block_facts.t) =
  Alcotest.(check bool) (ctx ^ ": fact table") true
    (bindings a.Block_facts.tbl = bindings b.Block_facts.tbl);
  Alcotest.(check (list int))
    (ctx ^ ": fact counters")
    Block_facts.
      [
        a.dead_reg_writes;
        a.summary_calls;
        a.summary_fallbacks;
        a.solver_visits;
        a.solver_updates;
      ]
    Block_facts.
      [
        b.dead_reg_writes;
        b.summary_calls;
        b.summary_fallbacks;
        b.solver_visits;
        b.solver_updates;
      ]

(* Runner derives a run's oracle and facts from one shared analysis of
   the workload; for every catalog workload, bare and VM, they must
   equal what the standalone passes compute from scratch. *)
let test_runner_matches_standalone () =
  List.iter
    (fun w ->
      let built = Catalog.build w in
      let images = Runner.images_of_built built in
      let facts, _ = Liveness.facts_of_images images in
      List.iter
        (fun (mode, run) ->
          let ctx = w ^ "/" ^ Classify.mode_name mode in
          let m = run built in
          let o = Oracle.of_images ~name:w ~mode images in
          Alcotest.(check bool) (ctx ^ ": predicted table") true
            (pc_bindings o.Oracle.predicted
            = pc_bindings m.Runner.oracle.Oracle.predicted);
          Alcotest.(check bool) (ctx ^ ": flow stats") true
            (o.Oracle.flow = m.Runner.oracle.Oracle.flow);
          check_same_facts ctx facts (installed_facts m))
        [
          (Classify.Bare, fun b -> Runner.run_bare b);
          (Classify.Vm, fun b -> Runner.run_vm b);
        ])
    Catalog.names

(* Regression for the mutex around Runner's memoized static analysis:
   two domains running the *same* built images concurrently, bare and
   VM in turn, hit the cache (same physical identity) from both sides
   for both oracles and the facts.  Unsynchronized, this races on the
   cache list; with the lock, every run completes with identical
   cycles, and every run of either domain gets the one cached predicted
   table for its mode and the one fact table both modes share. *)
let test_oracle_cache_two_domains () =
  let built = Catalog.build "hello" in
  let runs = 8 in
  let work () =
    Array.init runs (fun k ->
        let m =
          if k mod 2 = 0 then Runner.run_bare built else Runner.run_vm built
        in
        ( m.Runner.total_cycles,
          m.Runner.instructions,
          m.Runner.oracle.Oracle.predicted,
          installed_facts m ))
  in
  let other = Domain.spawn work in
  let here = work () in
  let there = Domain.join other in
  let _, _, _, facts0 = here.(0) in
  Array.iteri
    (fun k (c, i, predicted, facts) ->
      let c0, i0, predicted0, _ = here.(k mod 2) in
      check_int "cycles stable across domains" c0 c;
      check_int "instructions stable across domains" i0 i;
      Alcotest.(check bool) "one predicted table per mode" true
        (predicted == predicted0);
      Alcotest.(check bool) "one fact table for both modes" true
        (facts == facts0))
    (Array.append here there)

let () =
  Alcotest.run "vax_fleet"
    [
      ( "fleet",
        [
          Alcotest.test_case "parallel == serial (full catalog)" `Quick
            test_parallel_matches_serial;
          Alcotest.test_case "input-order stability" `Quick
            test_input_order_stability;
          Alcotest.test_case "crash isolation" `Quick test_crash_isolation;
          Alcotest.test_case "Metrics.merge" `Quick test_metrics_merge;
          Alcotest.test_case "runner analysis matches standalone" `Quick
            test_runner_matches_standalone;
          Alcotest.test_case "oracle cache from two domains" `Quick
            test_oracle_cache_two_domains;
        ] );
    ]
