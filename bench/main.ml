(* Regenerates every table and figure of "Virtualizing the VAX
   Architecture" (Hall & Robinson, ISCA 1991), plus the quantitative
   experiments of its evaluation sections.

   Usage:
     main.exe                       run everything
     main.exe --experiment t4       run one item (t1-t4, f1-f3, e1-e10)
     main.exe --list                list experiment ids
     main.exe --microbench          wall-clock microbenchmarks of the
                                    simulator's hot paths
     main.exe --microbench --json out.json
                                    also write machine-readable results
     main.exe --microbench --compare old.json
                                    rerun and print speedups vs a saved run
     main.exe --microbench --compare old.json --max-regress 25
                                    additionally fail (exit 1) if any shared
                                    bench regressed by more than 25%
     main.exe --bench-smoke         one fast iteration validating the JSON
                                    schema (wired into the test suite)

   The microbenchmarks measure the simulator substrate (host wall-clock),
   not simulated cycles: the cycle accounting of the experiments is
   untouched by anything here. *)

open Vax_arch
open Vax_mem
open Vax_vmm
open Vax_workloads
module Asm = Vax_asm.Asm

let experiments =
  [
    ("t1", "Table 1: sensitive unprivileged instructions", Conformance.table1);
    ("t2", "Table 2: PROBE versus PROBEVM", Conformance.table2);
    ("t3", "Table 3: solutions for sensitive data", Conformance.table3);
    ("t4", "Table 4: summary of architecture changes", Conformance.table4);
    ("f1", "Figure 1: VAX virtual address space", Conformance.figure1);
    ("f2", "Figure 2: VM/VMM shared address space", Conformance.figure2);
    ("f3", "Figure 3: ring compression", Conformance.figure3);
    ("e1", "E1: overall VM performance (47-48%)", Perf.e1_overall_performance);
    ("e2", "E2: multi-process shadow tables (~80%)", Perf.e2_shadow_cache);
    ("e3", "E3: faults between context switches (~17)", Perf.e3_faults_per_switch);
    ("e4", "E4: MTPR-to-IPL cost (10-12x)", Perf.e4_mtpr_ipl);
    ("e5", "E5: start-I/O versus memory-mapped I/O", Perf.e5_io_discipline);
    ("e6", "E6: modify fault versus read-only shadow", Perf.e6_modify_scheme);
    ("e7", "E7: on-demand versus anticipatory fill", Perf.e7_prefill);
    ("e8", "E8: Popek-Goldberg efficiency", Perf.e8_efficiency);
    ("e9", "E9: separate VMM address space ablation", Perf.e9_separate_space);
    ("e10", "E10: the 50% goal per workload", Perf.e10_goal_check);
  ]

let run_one ppf (id, title, f) =
  Format.fprintf ppf "==== %s — %s ====@." id title;
  let t0 = Unix.gettimeofday () in
  f ppf;
  Format.fprintf ppf "(%s completed in %.2fs)@.@." id
    (Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* JSON: the emitter/parser shared with vaxlint and the vax-trace/1
   event stream (one copy used to live inline here).                   *)

module Json = Vax_obs.Json

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock microbenchmarks of the simulator substrate      *)

let schema_version = "vax-bench/1"

let required_benches =
  [ "bare-run"; "vm-run"; "compute-run"; "calls-run"; "translate"; "decode";
    "shadow-fill"; "fleet-throughput" ]

(* Benchmarks excluded from the --max-regress gate (still reported and
   written to the JSON like everything else): fleet-*, whose wall-clock
   depends on the runner's core count, so a delta says nothing about
   hot-path latency. *)
let gated_bench name = not (String.starts_with ~prefix:"fleet" name)

(* A system-space identity mapping (UW protection) over [pages] pages,
   with the page table itself placed beyond them. *)
let make_mapped_mmu ~pages () =
  let phys = Phys_mem.create ~pages:(2 * pages) in
  let clock = Cycles.create () in
  let mmu = Mmu.create ~phys ~clock () in
  let sbr = pages * Addr.page_size in
  for vpn = 0 to pages - 1 do
    Phys_mem.write_long phys (sbr + (4 * vpn))
      (Pte.make ~valid:true ~prot:Protection.UW ~pfn:vpn ())
  done;
  Mmu.set_sbr mmu sbr;
  Mmu.set_slr mmu pages;
  Mmu.set_mapen mmu true;
  mmu

(* The decode benchmark: a mapped, decode-heavy loop (displacement and
   immediate specifiers) whose data page is distinct from its code pages,
   stepped to completion.  Exercises the decoded-instruction cache plus
   the TB fast path on every instruction byte the cache saves. *)
let make_decode_bench () =
  let a = Asm.create ~origin:0x8000_0200 in
  Asm.ins a Opcode.Movl [ Asm.Imm 300; Asm.R 0 ];
  Asm.label a "loop";
  Asm.ins a Opcode.Movl [ Asm.Disp (4, 1); Asm.R 2 ];
  Asm.ins a Opcode.Addl2 [ Asm.Imm 4; Asm.R 2 ];
  Asm.ins a Opcode.Movl [ Asm.R 2; Asm.Disp (8, 1) ];
  Asm.ins a Opcode.Movl [ Asm.Disp (12, 1); Asm.R 3 ];
  Asm.ins a Opcode.Addl3 [ Asm.Imm 100; Asm.R 3; Asm.R 4 ];
  Asm.ins a Opcode.Movl [ Asm.R 4; Asm.Disp (16, 1) ];
  Asm.ins a Opcode.Sobgtr [ Asm.R 0; Asm.Branch "loop" ];
  Asm.ins a Opcode.Halt [];
  let img = Asm.assemble a in
  let cpu = Vax_cpu.Cpu.create ~memory_pages:64 () in
  let st = cpu.Vax_cpu.Cpu.state in
  let mmu = st.Vax_cpu.State.mmu in
  let phys = Mmu.phys mmu in
  let sbr = 32 * Addr.page_size in
  for vpn = 0 to 31 do
    Phys_mem.write_long phys (sbr + (4 * vpn))
      (Pte.make ~valid:true ~prot:Protection.UW ~pfn:vpn ())
  done;
  Mmu.set_sbr mmu sbr;
  Mmu.set_slr mmu 32;
  Mmu.set_mapen mmu true;
  Vax_cpu.Cpu.load cpu 0x200 img.Asm.code;
  Vax_cpu.State.set_reg st 1 0x8000_1000;
  fun () ->
    st.Vax_cpu.State.halted <- false;
    Vax_cpu.State.set_pc st 0x8000_0200;
    ignore (Vax_cpu.Cpu.run cpu ~max_instructions:4000 ())

(* The shadow-fill benchmark: boot MiniVMS in a VM once, then repeatedly
   invalidate and demand-fill the shadow PTE of a guest-mapped address —
   the VMM's hottest memory-management primitive. *)
let make_shadow_fill_bench built =
  let m = Runner.run_vm built in
  let mmu = m.Runner.machine.Vax_dev.Machine.mmu in
  let vm =
    match m.Runner.vm with
    | Some vm -> vm
    | None -> failwith "run_vm returned no VM"
  in
  (* find a guest S-space page whose shadow PTE demand-fills cleanly *)
  let rec find_va vpn =
    if vpn >= 512 then failwith "shadow-fill bench: no fillable guest page"
    else
      let va = Word.logor 0x8000_0000 (vpn * Addr.page_size) in
      Shadow.invalidate_single mmu vm va;
      match Shadow.fill mmu vm va with
      | Shadow.Filled -> va
      | _ -> find_va (vpn + 1)
  in
  let va = find_va 0 in
  fun () ->
    for _ = 1 to 8 do
      Shadow.invalidate_single mmu vm va;
      ignore (Shadow.fill mmu vm va)
    done

let make_benches () =
  let open Vax_vmos in
  let built =
    Minivms.build ~programs:[ Programs.syscall_storm ~iterations:20 ] ()
  in
  let built_compute =
    Minivms.build ~programs:[ Programs.compute ~ident:1 ~iterations:4000 ] ()
  in
  let built_calls =
    Minivms.build ~programs:[ Programs.calls ~ident:1 ~rounds:2000 ] ()
  in
  let bench_translate =
    let mmu = make_mapped_mmu ~pages:64 () in
    (* warm the TB so steady-state translations are measured *)
    for i = 0 to 63 do
      ignore
        (Mmu.translate mmu ~mode:Mode.Kernel ~write:false
           (Word.add 0x8000_0000 (i * Addr.page_size)))
    done;
    fun () ->
      for i = 0 to 63 do
        ignore
          (Mmu.translate mmu ~mode:Mode.Kernel ~write:false
             (Word.add 0x8000_0000 (i * Addr.page_size)))
      done
  in
  (* one consolidation batch across the default domain count; the
     per-J jobs/sec figures live in machine.fleet.* (see fleet_stats) *)
  let fleet_batch =
    Vax_fleet.Fleet.catalog_jobs ~n:4 ~mode:Vax_fleet.Fleet.Vm ~mmio:false
  in
  [
    ("bare-run", fun () -> ignore (Runner.run_bare built));
    ("vm-run", fun () -> ignore (Runner.run_vm built));
    ("compute-run", fun () -> ignore (Runner.run_bare built_compute));
    ("calls-run", fun () -> ignore (Runner.run_bare built_calls));
    ("translate", bench_translate);
    ("decode", make_decode_bench ());
    ("shadow-fill", make_shadow_fill_bench built);
    ("assemble", fun () -> ignore (Programs.compute ~ident:0 ~iterations:1));
    ("fleet-throughput", fun () -> ignore (Vax_fleet.Fleet.run fleet_batch));
  ]

(* Run the suite under Bechamel's OLS estimator; returns ns/run per
   bench, in suite order. *)
let run_microbench ~quota_s ~limit () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota_s) () in
  List.map
    (fun (name, f) ->
      let test = Test.make ~name (Staged.stage f) in
      let raw = Benchmark.all cfg instances test in
      let res = Analyze.all ols Instance.monotonic_clock raw in
      let est = ref nan in
      Hashtbl.iter
        (fun _ ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ e ] -> est := e
          | _ -> ())
        res;
      (name, !est))
    (make_benches ())

(* Fleet throughput: one 8-job consolidation batch over the workload
   catalog (VM mode) at J = 1, 2 and 4 worker domains.  Jobs/sec is
   wall-clock, so these gauges are host-dependent by design; parallel
   efficiency at J is jobs_per_sec(J) / (J * jobs_per_sec(1)).  On a
   host with fewer cores than J the run still completes (domains
   timeshare) and the recorded efficiency simply reflects that. *)
let fleet_stats () =
  let batch =
    Vax_fleet.Fleet.catalog_jobs ~n:8 ~mode:Vax_fleet.Fleet.Vm ~mmio:false
  in
  let jps j =
    let r = Vax_fleet.Fleet.run ~jobs:j batch in
    (match Vax_fleet.Fleet.crashed r with
    | [] -> ()
    | (job, e) :: _ ->
        failwith
          (Printf.sprintf "fleet bench job %s crashed: %s"
             job.Vax_fleet.Fleet.job_name e.Vax_fleet.Fleet.error));
    r.Vax_fleet.Fleet.jobs_per_sec
  in
  let j1 = jps 1 and j2 = jps 2 and j4 = jps 4 in
  let eff j jn = if j1 > 0.0 then jn /. (float_of_int j *. j1) else 0.0 in
  [
    ("fleet.jobs", 8.0);
    ("fleet.jobs_per_sec_j1", j1);
    ("fleet.jobs_per_sec_j2", j2);
    ("fleet.jobs_per_sec_j4", j4);
    ("fleet.efficiency_j2", eff 2 j2);
    ("fleet.efficiency_j4", eff 4 j4);
  ]

(* Machine-level fidelity numbers for the VM workload, riding along with
   the timing results: TLB hit rate from the metrics registry and the
   VM-trap rate (oracle-observed events per guest instruction). *)
let machine_stats () =
  let open Vax_vmos in
  let built =
    Minivms.build ~programs:[ Programs.syscall_storm ~iterations:20 ] ()
  in
  let m = Runner.run_vm built in
  let snap =
    Vax_obs.Metrics.snapshot m.Runner.machine.Vax_dev.Machine.metrics
  in
  let get k =
    match List.assoc_opt k snap with Some v -> float_of_int v | None -> 0.0
  in
  let hits = get "tlb.hits" and misses = get "tlb.misses" in
  let lookups = hits +. misses in
  let bhits = get "blocks.hits" and bmisses = get "blocks.misses" in
  let bdispatch = bhits +. bmisses in
  let traps =
    float_of_int
      (Vax_analysis.Oracle.coverage m.Runner.oracle)
        .Vax_analysis.Oracle.observed_events
  in
  let instructions = float_of_int m.Runner.instructions in
  [
    ("tlb_hit_rate", if lookups > 0.0 then hits /. lookups else 0.0);
    ("trap_rate", if instructions > 0.0 then traps /. instructions else 0.0);
    ("block_hit_rate", if bdispatch > 0.0 then bhits /. bdispatch else 0.0);
    ("blocks_built", get "blocks.built");
    ("block_chains", get "blocks.chains");
    ("block_invalidations", get "blocks.invalidations");
  ]
  @ fleet_stats ()

let results_to_json ?machine results =
  Json.Obj
    ([
       ("schema", Json.Str schema_version);
       ( "results",
         Json.Arr
           (List.map
              (fun (name, ns) ->
                Json.Obj
                  [ ("name", Json.Str name); ("ns_per_run", Json.Num ns) ])
              results) );
     ]
    @
    match machine with
    | None -> []
    | Some stats ->
        [
          ( "machine",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) stats) );
        ])

let results_of_json j =
  (match Json.member "schema" j with
  | Some (Json.Str s) when s = schema_version -> ()
  | Some (Json.Str s) ->
      failwith (Printf.sprintf "unsupported schema %S (want %S)" s schema_version)
  | _ -> failwith "missing \"schema\" field");
  match Json.member "results" j with
  | Some (Json.Arr items) ->
      List.filter_map
        (fun item ->
          match (Json.member "name" item, Json.member "ns_per_run" item) with
          | Some (Json.Str name), Some (Json.Num ns) -> Some (name, ns)
          | Some (Json.Str name), Some Json.Null ->
              (* non-finite gauges serialize as null; the entry carries
                 no comparable value, so drop it rather than crash the
                 gate *)
              Format.eprintf "warning: skipping %s: null ns_per_run@." name;
              None
          | _ -> failwith "result entry missing \"name\"/\"ns_per_run\"")
        items
  | _ -> failwith "missing \"results\" array"

let load_results path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  results_of_json (Json.parse s)

let write_results path results =
  let machine = machine_stats () in
  let oc = open_out_bin path in
  output_string oc (Json.to_string (results_to_json ~machine results));
  output_char oc '\n';
  close_out oc;
  List.iter (fun (k, v) -> Format.printf "  %-14s %14.4f@." k v) machine;
  Format.printf "wrote %s@." path

let print_results results =
  List.iter
    (fun (name, ns) -> Format.printf "  %-14s %14.1f ns/run@." name ns)
    results

(* Print old-vs-new and return the regressions: shared benches whose new
   time exceeds the old by more than [max_regress] percent.  Benches
   excluded by [gated_bench] (fleet throughput) are printed but never
   flagged — the gate covers single-machine latency only. *)
let print_comparison ~old_results ~max_regress results =
  Format.printf "  %-16s %14s %14s %9s@." "benchmark" "old ns/run"
    "new ns/run" "speedup";
  List.filter_map
    (fun (name, ns) ->
      match List.assoc_opt name old_results with
      | Some old_ns when ns > 0.0 ->
          Format.printf "  %-16s %14.1f %14.1f %8.2fx%s@." name old_ns ns
            (old_ns /. ns)
            (if gated_bench name then "" else "  (not gated)");
          let regress_pct = ((ns /. old_ns) -. 1.0) *. 100.0 in
          if gated_bench name && regress_pct > max_regress then
            Some (name, regress_pct)
          else None
      | _ ->
          Format.printf "  %-16s %14s %14.1f@." name "-" ns;
          None)
    results

let microbench ~json_out ~compare_with ~max_regress () =
  (* load the baseline up front so a missing or malformed file fails
     before the benchmarks run, not after *)
  let old_results =
    match compare_with with
    | None -> None
    | Some path -> (
        try Some (load_results path)
        with
        | Sys_error msg ->
            Format.eprintf "error: cannot read %s: %s@." path msg;
            exit 1
        | Json.Parse_error msg | Failure msg ->
            Format.eprintf "error: %s is not a %s results file: %s@." path
              schema_version msg;
            exit 1)
  in
  let results = run_microbench ~quota_s:0.5 ~limit:200 () in
  let regressions =
    match old_results with
    | Some old_results ->
        print_comparison ~old_results ~max_regress results
    | None ->
        print_results results;
        []
  in
  (match json_out with
  | Some path -> write_results path results
  | None -> ());
  match regressions with
  | [] -> ()
  | rs ->
      List.iter
        (fun (name, pct) ->
          Format.eprintf "regression: %s is %.1f%% slower (limit %.0f%%)@." name
            pct max_regress)
        rs;
      exit 1

(* One fast iteration of the full suite, validating the JSON round-trip
   and schema.  Exits nonzero on any missing benchmark or malformed
   output; wired into the test suite as a smoke test. *)
let bench_smoke () =
  let results = run_microbench ~quota_s:0.02 ~limit:10 () in
  let machine = machine_stats () in
  let js = Json.to_string (results_to_json ~machine results) in
  let reparsed = results_of_json (Json.parse js) in
  let problems =
    List.filter_map
      (fun name ->
        match List.assoc_opt name reparsed with
        | None -> Some (name ^ ": missing from results")
        | Some ns when Float.is_nan ns || ns <= 0.0 ->
            Some (Printf.sprintf "%s: bad estimate %f" name ns)
        | Some _ -> None)
      required_benches
    @ List.filter_map
        (fun (k, v) ->
          if Float.is_nan v || v < 0.0 then
            Some (Printf.sprintf "machine.%s: bad value %f" k v)
          else None)
        machine
  in
  (* a baseline containing a null gauge (non-finite float serialized by
     an older run) must parse to the finite subset, not crash the gate *)
  let with_null =
    Printf.sprintf
      {|{"schema":"%s","results":[{"name":"bare-run","ns_per_run":12.5},{"name":"broken","ns_per_run":null}]}|}
      schema_version
  in
  let problems =
    problems
    @
    match results_of_json (Json.parse with_null) with
    | [ ("bare-run", 12.5) ] -> []
    | other ->
        [
          Printf.sprintf
            "null-gauge baseline parsed to %d entries (want just bare-run)"
            (List.length other);
        ]
    | exception e ->
        [ "null-gauge baseline raised: " ^ Printexc.to_string e ]
  in
  match problems with
  | [] ->
      Format.printf "bench smoke OK: %d benchmarks, schema %s@."
        (List.length reparsed) schema_version
  | ps ->
      List.iter (fun p -> Format.eprintf "bench smoke FAIL: %s@." p) ps;
      exit 1

let () =
  let ppf = Format.std_formatter in
  let args = Array.to_list Sys.argv in
  let rec flag_value name = function
    | [] -> None
    | f :: v :: _ when f = name -> Some v
    | _ :: rest -> flag_value name rest
  in
  match args with
  | _ :: "--list" :: _ ->
      List.iter (fun (id, title, _) -> Format.printf "%-5s %s@." id title)
        experiments
  | _ :: "--experiment" :: id :: _ -> (
      match List.find_opt (fun (i, _, _) -> i = id) experiments with
      | Some e -> run_one ppf e
      | None ->
          Format.eprintf "unknown experiment %s (try --list)@." id;
          exit 1)
  | _ :: "--microbench" :: rest ->
      let max_regress =
        match flag_value "--max-regress" rest with
        | None -> infinity
        | Some v -> (
            match float_of_string_opt v with
            | Some f -> f
            | None ->
                Format.eprintf "error: --max-regress wants a percentage@.";
                exit 1)
      in
      microbench ~json_out:(flag_value "--json" rest)
        ~compare_with:(flag_value "--compare" rest) ~max_regress ()
  | _ :: "--bench-smoke" :: _ -> bench_smoke ()
  | _ ->
      Format.printf
        "Reproduction of \"Virtualizing the VAX Architecture\" (ISCA 1991)@.@.";
      List.iter (run_one ppf) experiments
