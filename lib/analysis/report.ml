(* The machine-readable vaxlint report, schema "vaxlint/2", following the
   same hand-rolled JSON conventions as the vax-bench/1 benchmark
   harness.  vaxlint/2 extends vaxlint/1 with the vaxflow results:
   per-site abstract mode sets, flow-refined trap predictions, fixpoint
   statistics, flow diagnostics, and a precision section comparing the
   flow-sensitive predicted table against the flowless one. *)

open Vax_cpu
module Disasm = Vax_asm.Disasm
module Json = Vax_obs.Json

let schema_version = "vaxlint/2"

let kind_json kinds =
  Json.Arr
    (List.map (fun k -> Json.Str (State.trap_kind_name k)) kinds)

(* flow fact for a site, honoring the soundness valve *)
let fact_of ~flow_ok (r : Absdom.result option) (i : Disasm.insn) =
  match r with
  | Some r when flow_ok -> Hashtbl.find_opt r.Absdom.facts i.Disasm.address
  | _ -> None

let site_json ~mode ~flow_ok ~flow_result (i : Disasm.insn) =
  let cls =
    match i.Disasm.opcode with
    | None -> "data"
    | Some op -> Classify.cls_name (Classify.classify op)
  in
  let fact = fact_of ~flow_ok flow_result i in
  let flow = Option.map Absdom.flow_fact_of fact in
  let modes =
    match fact with
    | None -> [ Json.Str "unknown" ]
    | Some s -> List.map (fun n -> Json.Str n) (Absdom.Modes.names s.Absdom.modes)
  in
  Json.Obj
    [
      ("pc", Json.int i.Disasm.address);
      ("insn", Json.Str (Disasm.to_string i));
      ("class", Json.Str cls);
      ("modes", Json.Arr modes);
      ("predicted_traps", kind_json (Classify.predict ~mode ?flow i));
    ]

let block_json ~mode (b : Cfg.block) =
  let predicted =
    List.fold_left
      (fun n i -> n + List.length (Classify.predict ~mode i))
      0 b.Cfg.b_insns
  in
  Json.Obj
    [
      ("start", Json.int b.Cfg.b_start);
      ("insns", Json.int (List.length b.Cfg.b_insns));
      ("succs", Json.Arr (List.map Json.int b.Cfg.b_succs));
      ("predicted_traps", Json.int predicted);
    ]

let diag_json = function
  | Cfg.Unreachable { at; count } ->
      Json.Obj
        [
          ("kind", Json.Str "unreachable-bytes");
          ("at", Json.int at);
          ("count", Json.int count);
        ]
  | Cfg.Overlap { at; prev } ->
      Json.Obj
        [
          ("kind", Json.Str "overlapping-decode");
          ("at", Json.int at);
          ("inside", Json.int prev);
        ]

let flow_diag_json = function
  | Absdom.Mode_unreachable { at } ->
      Json.Obj [ ("kind", Json.Str "mode-unreachable"); ("at", Json.int at) ]
  | Absdom.Never_kernel { at; modes } ->
      Json.Obj
        [
          ("kind", Json.Str "never-kernel");
          ("at", Json.int at);
          ( "modes",
            Json.Arr (List.map (fun n -> Json.Str n) (Absdom.Modes.names modes))
          );
        ]
  | Absdom.Probe_const_mode { at; mode } ->
      Json.Obj
        [
          ("kind", Json.Str "probe-const-mode");
          ("at", Json.int at);
          ("mode", Json.Str (Vax_arch.Mode.name mode));
        ]
  | Absdom.Const_kernel_write { at; addr } ->
      Json.Obj
        [
          ("kind", Json.Str "const-kernel-write");
          ("at", Json.int at);
          ("addr", Json.int addr);
        ]

let flow_json (r : Absdom.result) =
  let s = r.Absdom.stats in
  Json.Obj
    [
      ("rounds", Json.int s.Absdom.rounds);
      ("blocks", Json.int s.Absdom.blocks);
      ("visits", Json.int s.Absdom.visits);
      ("updates", Json.int s.Absdom.updates);
      ("resolved_targets", Json.int s.Absdom.resolved);
      ("unresolved_targets", Json.int s.Absdom.unresolved);
      ("escapes", Json.int s.Absdom.escapes);
      ("mode_sound", Json.Bool s.Absdom.mode_sound);
      ("diagnostics", Json.Arr (List.map flow_diag_json r.Absdom.diags));
    ]

let image_json ~mode ~flow_ok (image, flow_result) =
  let cfg =
    match flow_result with
    | Some r -> r.Absdom.cfg  (* includes discovered computed targets *)
    | None -> Cfg.analyze image
  in
  let sites = Cfg.all_sites cfg in
  let count cls =
    List.length
      (List.filter
         (fun i ->
           match i.Disasm.opcode with
           | Some op -> Classify.classify op = cls
           | None -> false)
         sites)
  in
  let findings =
    List.filter
      (fun i ->
        match i.Disasm.opcode with
        | Some op -> Classify.classify op <> Classify.Innocuous
        | None -> false)
      sites
  in
  Json.Obj
    ([
       ("name", Json.Str cfg.Cfg.image.Cfg.name);
       ("base", Json.int cfg.Cfg.image.Cfg.base);
       ("bytes", Json.int (Bytes.length cfg.Cfg.image.Cfg.code));
       ("sites", Json.int (List.length sites));
       ("reachable", Json.int (Hashtbl.length cfg.Cfg.reachable));
       ("blocks", Json.Arr (List.map (block_json ~mode) cfg.Cfg.blocks));
       ( "summary",
         Json.Obj
           [
             ("innocuous", Json.int (count Classify.Innocuous));
             ("privileged", Json.int (count Classify.Privileged));
             ( "sensitive_unprivileged",
               Json.int (count Classify.Sensitive_unprivileged) );
           ] );
       ( "findings",
         Json.Arr (List.map (site_json ~mode ~flow_ok ~flow_result) findings) );
       ("diagnostics", Json.Arr (List.map diag_json cfg.Cfg.diags));
     ]
    @
    match flow_result with
    | None -> []
    | Some r -> [ ("flow", flow_json r) ])

let coverage_json (c : Oracle.coverage) =
  Json.Obj
    [
      ("predicted_pairs", Json.int c.Oracle.predicted_pairs);
      ("hit_pairs", Json.int c.Oracle.hit_pairs);
      ("observed_events", Json.int c.Oracle.observed_events);
    ]

(* With flow on, the per-image flow sections, the site mode sets and the
   precision section all come from one workload-wide [Analysis] — the
   same settled, summary-narrowed fixpoint the oracle refines with — so
   the report never disagrees with the oracle about [mode_sound]. *)
let report ?coverage ?(flow = true) ~mode ~workload (images : Cfg.image list) =
  let results, flow_ok, precision =
    if not flow then (List.map (fun _ -> None) images, false, [])
    else
      let a = Analysis.of_images images in
      let o = Oracle.of_analysis ~name:workload ~mode a in
      let f = Option.get o.Oracle.flow in
      let pairs = Oracle.predicted_pairs o in
      ( List.map Option.some a.Analysis.results,
        Analysis.mode_sound a,
        [
          ( "precision",
            Json.Obj
              [
                ("pairs", Json.int pairs);
                ("pairs_flowless", Json.int f.Oracle.fs_pairs_flowless);
                ("pairs_pruned", Json.int (f.Oracle.fs_pairs_flowless - pairs));
                ("mode_sound", Json.Bool f.Oracle.fs_mode_sound);
              ] );
        ] )
  in
  let fields =
    [
      ("schema", Json.Str schema_version);
      ("workload", Json.Str workload);
      ("mode", Json.Str (Classify.mode_name mode));
      ("flow", Json.Bool flow);
      ( "images",
        Json.Arr
          (List.map (image_json ~mode ~flow_ok) (List.combine images results))
      );
    ]
    @ precision
    @
    match coverage with
    | None -> []
    | Some c -> [ ("oracle", coverage_json c) ]
  in
  Json.to_string (Json.Obj fields)
