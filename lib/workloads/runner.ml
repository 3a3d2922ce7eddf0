open Vax_arch
open Vax_cpu
open Vax_dev
open Vax_vmm
open Vax_vmos
open Vax_analysis

type measurement = {
  outcome : Machine.outcome;
  total_cycles : int;
  guest_cycles : int;
  monitor_cycles : int;
  instructions : int;
  console : string;
  machine : Machine.t;
  vm : Vm.t option;
  oracle : Oracle.t;
}

let default_max = 400_000_000

(* A built's code images as vaxflow-ready CFG images: each carries the
   access mode in which MiniVMS first enters it, seeding the
   abstract-mode analysis. *)
let images_of_built (b : Minivms.built) =
  List.map
    (fun (name, img) ->
      Cfg.of_asm ?entry_mode:(Minivms.image_entry_mode name) name img)
    b.Minivms.code_images

(* Every run carries the vaxlint differential oracle: the workload's code
   images are statically analyzed up front and the microcode's trap
   observer checks each VM-emulation trap, privileged fault, and modify
   fault against the predicted sites, raising on any unpredicted one.
   Runs with [liveness] also install the liveness/constant facts for the
   superblock compiler.

   Both products derive from one static analysis ({!Analysis.of_images}),
   pure in the code images, and a [Minivms.built] is immutable once
   assembled, so the products are memoized by the physical identity of
   the built list.  An entry holds only products: oracles per (mode
   assumption, flow), shared read-only with fresh hit tracking via
   {!Oracle.with_predictions}, and the facts, which do not depend on the
   mode (the PSL<VM> context gate lives in the block cache).  When an
   entry lacks a product, the analysis runs outside the critical
   section and is dropped once the products are taken: it is much
   larger than they are (PERF.md, "One static pass per workload").

   The cache is process-global, so lookup and insertion are serialized
   by [cache_lock]: fleet workers on different domains may run (and even
   share) the same built images concurrently.  Products are complete
   before they are inserted and read-only afterwards; when two domains
   miss on the same builts, both analyze and the first insert wins. *)
type entry = {
  builts : Minivms.built list;
  oracles : ((Classify.mode_assumption * bool) * Oracle.t) list;
  facts : Block_facts.t option;
}

let cache : entry list ref = ref []
let cache_lock = Mutex.create ()
let max_cached = 8

let find builts =
  List.find_opt
    (fun e ->
      List.length e.builts = List.length builts
      && List.for_all2 ( == ) e.builts builts)
    !cache

(* Merge products into the entry for [builts], moved to the front (a
   product the entry already holds wins), and return the entry's
   products.  Called under [cache_lock]. *)
let insert ~key builts oracle facts =
  let old, rest =
    match find builts with
    | Some e -> (e, List.filter (( != ) e) !cache)
    | None ->
        ( { builts; oracles = []; facts = None },
          List.filteri (fun i _ -> i < max_cached - 1) !cache )
  in
  let oracle = Option.value ~default:oracle (List.assoc_opt key old.oracles) in
  let facts = if Option.is_some old.facts then old.facts else facts in
  cache :=
    { builts; oracles = (key, oracle) :: List.remove_assoc key old.oracles; facts }
    :: rest;
  (oracle, facts)

(* The oracle for [mode]/[flow] (with fresh hit tracking) and, with
   [liveness], the facts. *)
let analysis_products ~mode ~flow ~liveness (builts : Minivms.built list) =
  let key = (mode, flow) and name = Classify.mode_name mode in
  let cached_oracle, cached_facts =
    Mutex.protect cache_lock (fun () ->
        match find builts with
        | Some e -> (List.assoc_opt key e.oracles, e.facts)
        | None -> (None, None))
  in
  let oracle, facts =
    match (cached_oracle, cached_facts) with
    | Some o, f when Option.is_some f || not liveness -> (o, f)
    | _ ->
        let images = List.concat_map images_of_built builts in
        let analysis = lazy (Analysis.of_images images) in
        let oracle =
          match cached_oracle with
          | Some o -> o
          | None when flow ->
              Oracle.of_analysis ~name ~mode (Lazy.force analysis)
          | None -> Oracle.of_images ~flow:false ~name ~mode images
        in
        let facts =
          match cached_facts with
          | None when liveness ->
              Some (fst (Liveness.facts_of_analysis (Lazy.force analysis)))
          | f -> f
        in
        Mutex.protect cache_lock (fun () -> insert ~key builts oracle facts)
  in
  (Oracle.with_predictions ~name oracle, facts)

let register_flow_metrics m oracle =
  Vax_obs.Metrics.register_group m.Machine.metrics "analysis.flow" (fun () ->
      Oracle.flow_metrics oracle)

(* Install the run's oracle and, with [liveness], its facts. *)
let install m ~mode ~flow ~liveness ~inject builts =
  let oracle, facts = analysis_products ~mode ~flow ~liveness builts in
  Oracle.install ~strict:(inject = None) oracle m.Machine.cpu;
  register_flow_metrics m oracle;
  if liveness then begin
    m.Machine.bcache.Block_cache.facts <- facts;
    m.Machine.bcache.Block_cache.facts_vm <- mode = Classify.Vm
  end;
  oracle

let run_bare ?(variant = Variant.Standard) ?engine ?inject ?instrument
    ?(flow = true) ?(liveness = true) ?(max_cycles = default_max)
    (built : Minivms.built) =
  let m =
    Machine.create ~variant ~memory_pages:1024 ~disk_blocks:256 ?engine
      ?inject ()
  in
  let oracle =
    install m ~mode:Classify.Bare ~flow ~liveness ~inject [ built ]
  in
  (match instrument with Some f -> f m | None -> ());
  List.iter
    (fun (pa, data) -> Machine.load m pa data)
    built.Minivms.images;
  Machine.start m ~pc:built.Minivms.entry ~sp:0xC00;
  let outcome = Machine.run m ~max_cycles () in
  {
    outcome;
    total_cycles = Cycles.now m.Machine.clock;
    guest_cycles = Cycles.guest_cycles m.Machine.clock;
    monitor_cycles = Cycles.monitor_cycles m.Machine.clock;
    instructions = m.Machine.cpu.State.instructions;
    console = Console.output m.Machine.console;
    machine = m;
    vm = None;
    oracle;
  }

let measure_vm m vmm vm outcome oracle =
  ignore vmm;
  {
    outcome;
    total_cycles = Cycles.now m.Machine.clock;
    guest_cycles = Cycles.guest_cycles m.Machine.clock;
    monitor_cycles = Cycles.monitor_cycles m.Machine.clock;
    instructions = Vmm.guest_instructions vm;
    console = Vmm.console_output vm;
    machine = m;
    vm = Some vm;
    oracle;
  }

let run_vm ?config ?io_mode ?engine ?inject ?instrument ?(flow = true)
    ?(liveness = true) ?(max_cycles = default_max) (built : Minivms.built) =
  let m =
    Machine.create ~variant:Variant.Virtualizing ~memory_pages:2048
      ~disk_blocks:256 ?engine ?inject ()
  in
  let vmm = Vmm.create ?config m in
  let oracle =
    install m ~mode:Classify.Vm ~flow ~liveness ~inject [ built ]
  in
  let vm =
    Vmm.add_vm vmm ~name:"guest" ~memory_pages:built.Minivms.memsize
      ~disk_blocks:64 ?io_mode ~images:built.Minivms.images
      ~start_pc:built.Minivms.entry ()
  in
  (match instrument with Some f -> f m | None -> ());
  let outcome = Vmm.run vmm ~max_cycles () in
  measure_vm m vmm vm outcome oracle

let run_two_vms ?config ?engine ?inject ?instrument ?(flow = true)
    ?(liveness = true) ?(max_cycles = default_max)
    (b1 : Minivms.built) (b2 : Minivms.built) =
  let m =
    Machine.create ~variant:Variant.Virtualizing ~memory_pages:2048
      ~disk_blocks:256 ?engine ?inject ()
  in
  let vmm = Vmm.create ?config m in
  let oracle =
    install m ~mode:Classify.Vm ~flow ~liveness ~inject [ b1; b2 ]
  in
  let vm1 =
    Vmm.add_vm vmm ~name:"vm1" ~memory_pages:b1.Minivms.memsize
      ~disk_blocks:64 ~images:b1.Minivms.images ~start_pc:b1.Minivms.entry ()
  in
  let vm2 =
    Vmm.add_vm vmm ~name:"vm2" ~memory_pages:b2.Minivms.memsize
      ~disk_blocks:64 ~images:b2.Minivms.images ~start_pc:b2.Minivms.entry ()
  in
  (match instrument with Some f -> f m | None -> ());
  let outcome = Vmm.run vmm ~max_cycles () in
  (measure_vm m vmm vm1 outcome oracle, measure_vm m vmm vm2 outcome oracle)

let ratio ~vm ~bare =
  float_of_int bare.total_cycles /. float_of_int vm.total_cycles
