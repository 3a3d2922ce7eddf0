(* End-to-end benchmark of the simulator, the VMM and the fleet: host-time
   metrics over seeded workloads, with a per-layer breakdown measured
   from outside the libraries.  README.md lists the metrics, explains
   the workloads and shows how to read the spans.

     e2e.exe [--workload W] [--seed S] [--seconds T] [--trace 0|1]
             [--spans FILE]
     e2e.exe --smoke [--config BENCHMARK.json]

   Without --workload every workload runs in a child process of its
   own, one after another.  A single-workload run prints its input,
   every metric with its unit and sample count, and as its last line a
   JSON object with the keys correct, attempted, failed and metrics:
   the end-to-end metrics with --trace 0, the per-layer ones with
   --trace 1.  The exit code is 1 when any run failed a check.

   The benchmark only calls the libraries' public functions and times
   them from here. *)

open Vax_cpu
open Vax_dev
open Vax_vmm
open Vax_vmos
open Vax_analysis
open Vax_workloads
open Vax_fleet
module Metrics = Vax_obs.Metrics
module Trace = Vax_obs.Trace
module Json = Vax_obs.Json

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between the closest ranks. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Results, checks and spans of one workload run                      *)

type metric = { name : string; value : float; unit_ : string; n : int; e2e : bool }

type span = {
  id : int;
  sname : string;
  parent : int;  (** -1 for a root span *)
  run : int;  (** shared by the spans of one set-up and run *)
  t0 : float;
  t1 : float;
  vector : int;  (** SCB vector of a [vmm.exit] span, else -1 *)
}

type ctx = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : metric list;
  mutable spans : span list;
  mutable next_id : int;
  origin : float;
}

let new_ctx () =
  { attempted = 0; failed = 0; metrics = []; spans = []; next_id = 0; origin = now () }

let emit ctx ?(e2e = false) ?(n = 1) name unit_ value =
  ctx.metrics <- { name; value; unit_; n; e2e } :: ctx.metrics

let fresh ctx =
  ctx.next_id <- ctx.next_id + 1;
  ctx.next_id

let add_span ctx ?id ?(parent = -1) ?(vector = -1) ~run sname t0 t1 =
  let id = match id with Some id -> id | None -> fresh ctx in
  ctx.spans <- { id; sname; parent; run; t0; t1; vector } :: ctx.spans

(* Every simulator run or fleet job counts once as attempted, and once
   as failed when any check on it fails. *)
let record ctx label problems =
  ctx.attempted <- ctx.attempted + 1;
  if problems <> [] then begin
    ctx.failed <- ctx.failed + 1;
    List.iter (fun p -> Printf.printf "FAIL %s: %s\n%!" label p) problems
  end

(* What a run leaves behind that must repeat exactly. *)
type signature = {
  outcome : Machine.outcome;
  cycles : int;
  monitor : int;
  insns : int;
  console : string;
  snapshot : (string * int) list;
}

let of_measurement (m : Runner.measurement) =
  {
    outcome = m.Runner.outcome;
    cycles = m.Runner.total_cycles;
    monitor = m.Runner.monitor_cycles;
    insns = m.Runner.instructions;
    console = m.Runner.console;
    snapshot = Metrics.snapshot m.Runner.machine.Machine.metrics;
  }

let of_job (s : Fleet.job_stats) =
  {
    outcome = s.Fleet.outcome;
    cycles = s.Fleet.total_cycles;
    monitor = s.Fleet.monitor_cycles;
    insns = s.Fleet.instructions;
    console = s.Fleet.console;
    snapshot = s.Fleet.metrics;
  }

let expected_outcome = function Fleet.Bare -> Machine.Halted | Fleet.Vm -> Machine.Stopped

let outcome_problems mode s =
  if s.outcome = expected_outcome mode then []
  else
    [
      Format.asprintf "outcome %a, expected %a" Machine.pp_outcome s.outcome
        Machine.pp_outcome (expected_outcome mode);
    ]

(* The simulation is deterministic: a run must match the first run of
   the same input in every simulated count. *)
let same_problems ~expected s =
  let d what a b = if a = b then [] else [ Printf.sprintf "%s %d, expected %d" what a b ] in
  d "cycles" s.cycles expected.cycles
  @ d "monitor cycles" s.monitor expected.monitor
  @ d "instructions" s.insns expected.insns
  @ (if s.console = expected.console then [] else [ "console differs" ])
  @
  if s.snapshot = expected.snapshot then []
  else
    match
      List.find_opt (fun (k, v) -> List.assoc_opt k expected.snapshot <> Some v) s.snapshot
    with
    | Some (k, v) -> [ Printf.sprintf "metric %s = %d differs" k v ]
    | None -> [ "metrics snapshot differs" ]

(* The paper's equivalence property: under the VMM a guest prints what
   the same system prints on the bare machine.  Timing differs between
   the two, and with it the order in which processes' output
   interleaves, so the consoles are compared as multisets of bytes. *)
let equivalence_problems ~bare ~vm =
  let bytes s = List.sort compare (List.of_seq (String.to_seq s)) in
  if bytes bare.console = bytes vm.console then []
  else [ "VM console differs from the bare reference console" ]

(* ------------------------------------------------------------------ *)
(* Set-up and runs                                                     *)

let run ?instrument mode built =
  match mode with
  | Fleet.Bare -> Runner.run_bare ?instrument built
  | Fleet.Vm -> Runner.run_vm ?instrument built

let other = function Fleet.Bare -> Fleet.Vm | Fleet.Vm -> Fleet.Bare

type setup = { build : float; cfg : float; oracle : float; liveness : float; machine : float }

(* One cold set-up of a machine for the input [make] builds: the calls
   Runner makes before a run starts, made here one by one and timed.
   [span] sees each call's name and interval. *)
let setup_once ?(span = fun _ _ _ -> ()) mode make =
  let step name f =
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    span name t0 t1;
    (r, t1 -. t0)
  in
  let built, build = step "vmos.build" make in
  let images, oracle =
    step "analysis.oracle" (fun () ->
        let images = Runner.images_of_built built in
        let mode = match mode with Fleet.Bare -> Classify.Bare | Fleet.Vm -> Classify.Vm in
        ignore (Oracle.of_images ~name:"e2e" ~mode images);
        images)
  in
  let (), liveness = step "analysis.liveness" (fun () -> ignore (Liveness.facts_of_images images)) in
  let (), machine =
    step "dev.machine_create" (fun () ->
        match mode with
        | Fleet.Bare ->
            let m = Machine.create ~variant:Variant.Standard ~memory_pages:1024 ~disk_blocks:256 () in
            List.iter (fun (pa, data) -> Machine.load m pa data) built.Minivms.images
        | Fleet.Vm ->
            let m =
              Machine.create ~variant:Variant.Virtualizing ~memory_pages:2048 ~disk_blocks:256 ()
            in
            ignore
              (Vmm.add_vm (Vmm.create m) ~name:"guest" ~memory_pages:built.Minivms.memsize
                 ~disk_blocks:64 ~images:built.Minivms.images ~start_pc:built.Minivms.entry ()))
  in
  (* Not part of the set-up: the oracle and liveness passes each recover
     the CFG internally; this times one recovery on its own. *)
  let (), cfg = step "analysis.cfg" (fun () -> List.iter (fun i -> ignore (Cfg.analyze i)) images) in
  { build; cfg; oracle; liveness; machine }

let setup_s s = s.build +. s.oracle +. s.liveness +. s.machine

(* Other tenants of a shared host slow this process in episodes of
   seconds to minutes, by up to 1.8x (README.md).  A run's figure for a
   host time is therefore its fastest decile: the time taken while
   uncontended, which repeats across runs where a median follows the
   share of the run spent contended. *)
let fast_time times = quantile 0.1 times
let fast_rate rates = quantile 0.9 rates

let emit_setup ctx setups =
  let n = List.length setups in
  let m name f = emit ctx ~n name "s" (fast_time (List.map f setups)) in
  emit ctx ~e2e:true ~n "setup_s" "s" (fast_time (List.map setup_s setups));
  m "vmos.build_s" (fun s -> s.build);
  m "analysis.cfg_s" (fun s -> s.cfg);
  m "analysis.oracle_s" (fun s -> s.oracle);
  m "analysis.liveness_s" (fun s -> s.liveness);
  m "dev.machine_create_s" (fun s -> s.machine)

(* Words allocated by the calling domain while [f] runs, and major
   collections completed meanwhile. *)
let alloc_of f =
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () and g0 = (Gc.quick_stat ()).Gc.major_collections in
  let r = f () in
  (r, words () -. w0, (Gc.quick_stat ()).Gc.major_collections - g0)

(* A traced set-up and run of one input, under one run id.  The trace
   sink reads the clock only at VM exits and entries; every exit becomes
   a [vmm.exit] span whose parent is the run's span. *)
let traced ctx mode make built =
  let run_id = fresh ctx in
  let setup_id = fresh ctx in
  let t0 = now () in
  ignore
    (setup_once mode make ~span:(fun name a b -> add_span ctx ~parent:setup_id ~run:run_id name a b));
  add_span ctx ~id:setup_id ~run:run_id "setup" t0 (now ());
  let root = fresh ctx in
  let start = ref nan and vec = ref 0 in
  let close t =
    if not (Float.is_nan !start) then begin
      add_span ctx ~parent:root ~vector:!vec ~run:run_id "vmm.exit" !start t;
      start := nan
    end
  in
  let sink ~seq:_ kind ~a ~b:_ ~c:_ =
    match kind with
    | Trace.Vm_exit ->
        if Float.is_nan !start then begin
          start := now ();
          vec := a
        end
    | Trace.Vm_entry -> close (now ())
    | _ -> ()
  in
  let instrument (m : Machine.t) =
    Trace.set_enabled m.Machine.trace true;
    Trace.set_sink m.Machine.trace (Some sink)
  in
  let t0 = now () in
  let m = run ~instrument mode built in
  let t1 = now () in
  close t1;
  add_span ctx ~id:root ~run:run_id "run" t0 t1;
  (of_measurement m, t1 -. t0, run_id)

(* VMM exit figures over the traced VM runs [runs] (run id, guest
   instructions). *)
let exit_vectors = [ 0x54; 0x84; 0xC0 ]

let emit_exits ctx runs =
  let ids = List.map fst runs in
  let in_runs s = List.mem s.run ids in
  let exits = List.filter (fun s -> s.sname = "vmm.exit" && in_runs s) ctx.spans in
  let run_s =
    sum (List.filter_map (fun s -> if s.sname = "run" && in_runs s then Some (s.t1 -. s.t0) else None) ctx.spans)
  in
  let n = List.length exits in
  let total = sum (List.map (fun s -> s.t1 -. s.t0) exits) in
  let kinsns = float_of_int (List.fold_left (fun a (_, i) -> a + i) 0 runs) /. 1000. in
  emit ctx ~n "vmm.exits_per_kinsn" "1/kinsn" (float_of_int n /. kinsns);
  emit ctx ~n "vmm.host_share" "ratio" (ratio total run_s);
  emit ctx ~n "vmm.ns_per_exit" "ns" (1e9 *. ratio total (float_of_int n));
  List.iter
    (fun v ->
      let xs = List.filter (fun s -> s.vector = v) exits in
      let k = List.length xs in
      emit ctx ~n:k (Printf.sprintf "vmm.ns_per_exit.x%X" v) "ns"
        (1e9 *. ratio (sum (List.map (fun s -> s.t1 -. s.t0) xs)) (float_of_int k)))
    exit_vectors

(* Layer counts of one or more runs, from their metrics snapshots. *)
let emit_counts ctx ~n (sigs : signature list) =
  let snap = Metrics.merge (List.map (fun s -> s.snapshot) sigs) in
  let tot f = float_of_int (List.fold_left (fun a s -> a + f s) 0 sigs) in
  let get k = float_of_int (Option.value ~default:0 (List.assoc_opt k snap)) in
  (* per-VM stats register as vm.<name>.<stat> *)
  let vm stat =
    float_of_int
      (List.fold_left
         (fun a (k, v) ->
           if String.starts_with ~prefix:"vm." k && String.ends_with ~suffix:("." ^ stat) k
           then a + v
           else a)
         0 snap)
  in
  let insns = tot (fun s -> s.insns) in
  let per_kinsn x = 1000. *. ratio x insns in
  let count name v = emit ctx ~n name "count" v in
  (* blocks.hits counts instructions run from compiled blocks,
     blocks.misses those stepped cold, blocks.chains block entries
     through a chain link *)
  emit ctx ~n "blocks.hit_rate" "ratio"
    (ratio (get "blocks.hits") (get "blocks.hits" +. get "blocks.misses"));
  emit ctx ~n "blocks.chains_per_kinsn" "1/kinsn" (per_kinsn (get "blocks.chains"));
  count "blocks.built" (get "blocks.built");
  count "blocks.invalidations" (get "blocks.invalidations");
  count "blocks.liveness.cc_elided" (get "blocks.liveness.cc_elided");
  count "blocks.liveness.dead_writes_elided" (get "blocks.liveness.dead_writes_elided");
  emit ctx ~n "tlb.hit_rate" "ratio" (ratio (get "tlb.hits") (get "tlb.hits" +. get "tlb.misses"));
  emit ctx ~n "tlb.misses_per_kinsn" "1/kinsn" (per_kinsn (get "tlb.misses"));
  emit ctx ~n "mmu.walks_per_kinsn" "1/kinsn" (per_kinsn (get "mmu.walks"));
  count "mmu.modify_faults" (get "mmu.modify_faults");
  emit ctx ~n "vm.emulation_traps_per_kinsn" "1/kinsn" (per_kinsn (vm "emulation_traps"));
  count "vm.shadow_fills" (vm "shadow_fills");
  emit ctx ~n "vm.shadow_cache_hit_rate" "ratio"
    (ratio (vm "shadow_cache_hits") (vm "shadow_cache_hits" +. vm "shadow_cache_misses"));
  count "vm.rei_emulated" (vm "rei_emulated");
  count "vm.io_requests" (vm "io_requests");
  emit ctx ~n "sim.monitor_cycle_share" "ratio" (ratio (tot (fun s -> s.monitor)) (tot (fun s -> s.cycles)));
  count "timer.ticks" (get "timer.ticks");
  count "disk.ios" (get "disk.ios");
  count "cpu.interrupts_taken" (get "cpu.interrupts_taken")

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type config = {
  seconds : float;  (** minimum timed host time per workload *)
  scale : int;  (** size divisor, see [Gen.make] *)
  min_reps : int;  (** minimum timed runs, or fleet batches *)
  trace : bool;
}

(* A single machine: one warm-up run (which also fills Runner's
   analysis cache, so timed runs pay for the run alone), an untimed
   reference run in the other mode, then for [seconds] a cold set-up of
   a fresh copy of the input followed by a timed run, so that set-ups
   and runs sample the same stretch of host time. *)
let single ctx cfg (w : Gen.single) =
  let mode = w.Gen.mode in
  let make () = Gen.build w in
  let built = make () in
  let first = of_measurement (run mode built) in
  record ctx "warm-up" (outcome_problems mode first);
  let refr = of_measurement (run (other mode) built) in
  let bare, vm = if mode = Fleet.Bare then (first, refr) else (refr, first) in
  record ctx "reference" (outcome_problems (other mode) refr @ equivalence_problems ~bare ~vm);
  let setups = ref [] and reps = ref [] in
  let t_start = now () in
  while now () -. t_start < cfg.seconds || List.length !reps < cfg.min_reps do
    setups := setup_once mode make :: !setups;
    let (s, dt), words, majors = alloc_of (fun () -> time (fun () -> of_measurement (run mode built))) in
    record ctx "run" (outcome_problems mode s @ same_problems ~expected:first s);
    reps := (dt, words, majors) :: !reps
  done;
  let wall = now () -. t_start in
  emit_setup ctx !setups;
  let dts = List.map (fun (dt, _, _) -> dt) !reps in
  let n = List.length dts in
  let insns = float_of_int first.insns in
  emit ctx ~e2e:true ~n "sim_mips" "MIPS" (fast_rate (List.map (fun dt -> insns /. dt /. 1e6) dts));
  emit ctx ~n "run.host_s" "s" (median dts);
  emit ctx ~n "run.alloc_words_per_insn" "words"
    (median (List.map (fun (_, w, _) -> w /. insns) !reps));
  emit ctx ~n "run.major_gcs" "count" (median (List.map (fun (_, _, g) -> float_of_int g) !reps));
  emit_counts ctx ~n:1 [ first ];
  emit ctx "sim.vm_cycle_ratio" "ratio" (ratio (float_of_int bare.cycles) (float_of_int vm.cycles));
  emit ctx ~n "fleet.busy_share" "ratio" (sum dts /. wall);
  emit ctx "fleet.parallel_speedup" "ratio" 1.;
  emit ctx ~n "fleet.job_build_s.p50" "s" (median (List.map (fun s -> s.build) !setups));
  emit ctx ~n "fleet.job_run_s.p50" "s" (median dts);
  if cfg.trace then begin
    (* The workload's own mode, and for a bare workload also its VM
       reference, so every workload reports VMM exit costs. *)
    let s, dt, id = traced ctx mode make built in
    record ctx "traced run" (same_problems ~expected:first s);
    emit ctx "trace.overhead" "ratio" (dt /. median dts);
    let vm_id =
      if mode = Fleet.Vm then id
      else begin
        let s, _, id = traced ctx Fleet.Vm make built in
        record ctx "traced reference" (same_problems ~expected:refr s);
        id
      end
    in
    emit_exits ctx [ (vm_id, vm.insns) ]
  end

(* A fleet of cold jobs: each job builds its catalog workload afresh and
   runs it, so Runner analyses every job's images again, under its
   global cache mutex.  [sim_mips] comes from batches on one domain.
   With both vCPUs of a 2-vCPU host busy, contention from other tenants
   on either one stalls both domains at every stop-the-world minor
   collection, which left parallel throughput too noisy to gate
   (README.md); batches on [min 2 (recommended domain count)] domains
   alternate with the serial ones only in traced runs, for the
   per-layer fleet figures. *)
let fleet ctx cfg (f : Gen.fleet) =
  let inputs = Array.to_list f.Gen.jobs in
  (* serial reference: one run of every distinct input *)
  let refs =
    List.map
      (fun (w, mode) ->
        let built = Catalog.build w in
        let s, words, _ = alloc_of (fun () -> of_measurement (run mode built)) in
        ((w, mode), (built, s, words)))
      inputs
  in
  let sig_of key = let _, s, _ = List.assoc key refs in s in
  List.iter
    (fun ((w, mode), (_, s, _)) ->
      let equiv =
        if mode = Fleet.Vm then equivalence_problems ~bare:(sig_of (w, Fleet.Bare)) ~vm:s else []
      in
      record ctx ("reference " ^ w ^ "/" ^ Gen.mode_name mode) (outcome_problems mode s @ equiv))
    refs;
  let parallel = min 2 (Domain.recommended_domain_count ()) in
  let insns = float_of_int (List.fold_left (fun a (_, (_, s, _)) -> a + s.insns) 0 refs) in
  (* one batch: its wall time, and per job the build and Runner times *)
  let batch ~domains k =
    let queue = Gen.batch_queue f k in
    let n = Array.length queue in
    let build_s = Array.make n 0. and run_s = Array.make n 0. in
    let job i (w, mode) =
      {
        Fleet.job_name = Printf.sprintf "%s/%s#%d" w (Gen.mode_name mode) i;
        spec =
          Fleet.Custom
            (fun () ->
              let built, b = time (fun () -> Catalog.build w) in
              let m, r = time (fun () -> run mode built) in
              build_s.(i) <- b;
              run_s.(i) <- r;
              m);
        max_cycles = None;
        retries = 0;
        inject = None;
      }
    in
    let g0 = (Gc.quick_stat ()).Gc.major_collections in
    let report, wall =
      time (fun () -> Fleet.run ~jobs:domains (Array.to_list (Array.mapi job queue)))
    in
    let majors = (Gc.quick_stat ()).Gc.major_collections - g0 in
    Array.iteri
      (fun i ((job : Fleet.job), r) ->
        match r with
        | Ok st ->
            let s = of_job st in
            record ctx job.Fleet.job_name
              (outcome_problems (snd queue.(i)) s @ same_problems ~expected:(sig_of queue.(i)) s)
        | Error e -> record ctx job.Fleet.job_name [ e.Fleet.error ])
      report.Fleet.results;
    (wall, Array.to_list build_s, Array.to_list run_s, majors)
  in
  ignore (batch ~domains:1 0);
  (* each round: two cold set-ups, cycling through the inputs, then a
     serial batch and, when tracing, a parallel one *)
  let cycle = Array.of_list inputs in
  let setups = ref [] and serial = ref [] and par = ref [] and k = ref 0 in
  let t_start = now () in
  while now () -. t_start < cfg.seconds || List.length !serial < cfg.min_reps do
    for _ = 1 to 2 do
      let w, mode = cycle.(!k mod Array.length cycle) in
      incr k;
      setups := setup_once mode (fun () -> Catalog.build w) :: !setups
    done;
    serial := batch ~domains:1 !k :: !serial;
    if cfg.trace then par := batch ~domains:parallel (!k + 1) :: !par
  done;
  emit_setup ctx !setups;
  let mips bs = fast_rate (List.map (fun (wall, _, _, _) -> insns /. wall /. 1e6) bs) in
  let jobs_of bs field = List.concat_map field bs in
  let serial_runs = jobs_of !serial (fun (_, _, r, _) -> r) in
  let nb = List.length !serial and nj = List.length serial_runs in
  emit ctx ~e2e:true ~n:nb "sim_mips" "MIPS" (mips !serial);
  let ref_sigs = List.map (fun (_, (_, s, _)) -> s) refs in
  let nr = List.length refs in
  emit ctx ~n:nj "run.host_s" "s" (median serial_runs);
  emit ctx ~n:nr "run.alloc_words_per_insn" "words"
    (ratio (sum (List.map (fun (_, (_, _, w)) -> w) refs)) insns);
  emit ctx ~n:nj "run.major_gcs" "count"
    (float_of_int (List.fold_left (fun a (_, _, _, g) -> a + g) 0 !serial) /. float_of_int nj);
  emit_counts ctx ~n:nr ref_sigs;
  let cycles mode =
    float_of_int
      (List.fold_left (fun a ((_, m), (_, s, _)) -> if m = mode then a + s.cycles else a) 0 refs)
  in
  emit ctx ~n:nr "sim.vm_cycle_ratio" "ratio" (ratio (cycles Fleet.Bare) (cycles Fleet.Vm));
  if cfg.trace then begin
    let np = List.length !par in
    emit ctx ~n:np "fleet.busy_share" "ratio"
      (median
         (List.map
            (fun (wall, b, r, _) -> (sum b +. sum r) /. (float_of_int parallel *. wall))
            !par));
    emit ctx ~n:np "fleet.parallel_speedup" "ratio" (mips !par /. mips !serial);
    emit ctx ~n:(np * nr) "fleet.job_build_s.p50" "s" (median (jobs_of !par (fun (_, b, _, _) -> b)));
    emit ctx ~n:(np * nr) "fleet.job_run_s.p50" "s" (median (jobs_of !par (fun (_, _, r, _) -> r)));
    (* Per input: an untimed run (it refills Runner's analysis cache,
       which holds fewer entries than there are inputs), a timed
       untraced run and a traced one. *)
    let plain = ref 0. and traced_s = ref 0. and vm_runs = ref [] in
    List.iter
      (fun ((w, mode), (built, s, _)) ->
        let label = w ^ "/" ^ Gen.mode_name mode in
        let check what m = record ctx (what ^ " " ^ label) (same_problems ~expected:s m) in
        check "untimed" (of_measurement (run mode built));
        let m, dt = time (fun () -> of_measurement (run mode built)) in
        check "untraced" m;
        let t, tdt, id = traced ctx mode (fun () -> Catalog.build w) built in
        check "traced" t;
        plain := !plain +. dt;
        traced_s := !traced_s +. tdt;
        if mode = Fleet.Vm then vm_runs := (id, s.insns) :: !vm_runs)
      refs;
    emit ctx ~n:nr "trace.overhead" "ratio" (!traced_s /. !plain);
    emit_exits ctx !vm_runs
  end

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l -> (
            try Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
            with Scanf.Scan_failure _ | End_of_file -> find ())
      in
      find ())

let run_workload ctx cfg ~seed name =
  let input = Gen.make ~scale:cfg.scale ~seed name in
  Printf.printf "workload %s, seed %d: %s\n%!" name seed (Gen.describe input);
  (match input with Gen.Single s -> single ctx cfg s | Gen.Fleet f -> fleet ctx cfg f);
  emit ctx ~e2e:true "peak_rss_mb" "MB" (peak_rss_mb ())

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let print_metrics ctx =
  List.iter
    (fun m ->
      Printf.printf "  %-3s %-36s %18.6f %-8s n=%d\n"
        (if m.e2e then "e2e" else "") m.name m.value m.unit_ m.n)
    (List.rev ctx.metrics)

let result_json ctx ~trace =
  Json.Obj
    [
      ("correct", Json.Bool (ctx.failed = 0));
      ("attempted", Json.int ctx.attempted);
      ("failed", Json.int ctx.failed);
      ( "metrics",
        Json.Obj
          (List.filter_map
             (fun m ->
               if m.e2e = trace then None
               else Some (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
             (List.rev ctx.metrics)) );
    ]

(* Spans as JSON, times in ns since the workload's process started. *)
let write_spans ctx ~workload ~seed file =
  let ns t = Json.int (int_of_float ((t -. ctx.origin) *. 1e9)) in
  let span s =
    Json.Obj
      ([
         ("id", Json.int s.id);
         ("name", Json.Str s.sname);
         ("parent", Json.int s.parent);
         ("run", Json.int s.run);
         ("start_ns", ns s.t0);
         ("end_ns", ns s.t1);
       ]
      @ if s.vector < 0 then [] else [ ("vector", Json.Str (Printf.sprintf "x%X" s.vector)) ])
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.Str "e2e-spans/1");
                ("workload", Json.Str workload);
                ("seed", Json.int seed);
                ("spans", Json.Arr (List.rev_map span ctx.spans));
              ])))

(* ------------------------------------------------------------------ *)
(* Smoke: the benchmark checking itself                                *)

let smoke config =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let bench = Json.parse (In_channel.with_open_text config In_channel.input_all) in
  let list key =
    match Json.member key bench with Some (Json.Arr l) -> l | _ -> problem "%s: no %s list" config key; []
  in
  let str key j = match Json.member key j with Some (Json.Str s) -> s | _ -> "" in
  let workloads = List.map (str "name") (list "workloads") in
  if workloads <> Gen.names then problem "workloads in %s differ from the generator's" config;
  let declared = List.map (fun j -> (j, true)) (list "end_to_end") @ List.map (fun j -> (j, false)) (list "per_layer") in
  let cfg = { seconds = 0.; scale = 100; min_reps = 2; trace = true } in
  List.iter
    (fun w ->
      let ctx = new_ctx () in
      run_workload ctx cfg ~seed:1 w;
      if ctx.failed > 0 then problem "%s: %d of %d runs failed" w ctx.failed ctx.attempted;
      List.iter
        (fun (j, e2e) ->
          let name = str "name" j in
          match List.find_opt (fun m -> m.name = name) ctx.metrics with
          | None -> problem "%s: metric %s not emitted" w name
          | Some m ->
              if m.e2e <> e2e then problem "%s: %s emitted in the wrong set" w name;
              if m.unit_ = "" || m.unit_ <> str "unit" j then problem "%s: %s has unit %S" w name m.unit_;
              if not (Float.is_finite m.value) then problem "%s: %s is not finite" w name)
        declared;
      let file = Printf.sprintf "e2e-smoke-spans-%s.json" w in
      write_spans ctx ~workload:w ~seed:1 file;
      let spans = Json.member "spans" (Json.parse (In_channel.with_open_text file In_channel.input_all)) in
      Sys.remove file;
      match spans with
      | Some (Json.Arr l) when List.exists (fun s -> str "name" s = "vmm.exit") l
                               && List.exists (fun s -> str "name" s = "run") l -> ()
      | _ -> problem "%s: spans file lacks run or vmm.exit spans" w)
    Gen.names;
  (* negative case: an altered reference console must fail the run *)
  let s = of_measurement (Runner.run_bare (Catalog.build "hello")) in
  if equivalence_problems ~bare:{ s with console = s.console ^ "!" } ~vm:s = [] then
    problem "an altered reference console passed the equivalence check";
  match !problems with
  | [] -> print_endline "e2e smoke: ok"
  | ps ->
      List.iter (Printf.printf "e2e smoke: %s\n") (List.rev ps);
      exit 1

(* ------------------------------------------------------------------ *)

let run_all ~seed ~seconds ~trace ~spans =
  let failed =
    List.filter
      (fun w ->
        let spans = if spans = "" then [] else [ "--spans"; Printf.sprintf "%s.%s" spans w ] in
        let args =
          [ Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed; "--seconds";
            string_of_float seconds; "--trace"; string_of_int trace ]
          @ spans
        in
        flush stdout;
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
            Unix.stderr
        in
        snd (Unix.waitpid [] pid) <> Unix.WEXITED 0)
      Gen.names
  in
  if failed <> [] then begin
    Printf.printf "e2e: failed workloads: %s\n" (String.concat ", " failed);
    exit 1
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25. and trace = ref 0 in
  let spans = ref "" and smoke_mode = ref false and config = ref "BENCHMARK.json" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  run one workload: " ^ String.concat ", " Gen.names);
      ("--seed", Arg.Set_int seed, "S  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "T  timed host seconds per workload (default 25)");
      ("--trace", Arg.Set_int trace, "0|1  also make the traced run; print per-layer metrics");
      ("--spans", Arg.Set_string spans, "FILE  write the traced run's spans as JSON");
      ("--smoke", Arg.Set smoke_mode, " fast self-check of the benchmark (1/100 sizes)");
      ("--config", Arg.Set_string config, "FILE  BENCHMARK.json checked by --smoke");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--spans FILE] | --smoke";
  if !trace <> 0 && !trace <> 1 then (prerr_endline "e2e: --trace takes 0 or 1"; exit 2);
  if !smoke_mode then smoke !config
  else if !workload = "" then run_all ~seed:!seed ~seconds:!seconds ~trace:!trace ~spans:!spans
  else begin
    if not (List.mem !workload Gen.names) then begin
      Printf.eprintf "e2e: unknown workload %s (one of %s)\n" !workload (String.concat ", " Gen.names);
      exit 2
    end;
    let ctx = new_ctx () in
    let cfg = { seconds = !seconds; scale = 1; min_reps = 3; trace = !trace = 1 } in
    (try run_workload ctx cfg ~seed:!seed !workload
     with e -> record ctx "workload" [ Printexc.to_string e ]);
    print_metrics ctx;
    if !spans <> "" then write_spans ctx ~workload:!workload ~seed:!seed !spans;
    Printf.printf "%s\n" (Json.to_string (result_json ctx ~trace:(!trace = 1)));
    exit (if ctx.failed = 0 then 0 else 1)
  end
