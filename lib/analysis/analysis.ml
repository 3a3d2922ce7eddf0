(* The workload-wide static analysis, computed once and shared by every
   product derived from it: the trap-prediction oracle for either mode
   assumption ([Oracle.of_analysis]), the liveness/constant facts
   ([Liveness.facts_of_analysis], a static product only) and the
   vaxlint report.

   One pass recovers each image's CFG, builds the callee summaries from
   those CFGs, and runs the settled vaxflow fixpoint ([Absdom]) with
   call-site clobbers narrowed by the summaries; the fixpoint's first
   round reuses the recovered CFGs.  The record is meant to be
   transient: derive the products and drop it (the products are far
   smaller than the CFGs and abstract states behind them). *)

type t = {
  cfgs : Cfg.t list;
      (* per-image CFGs over the declared entries only: the flowless
         baseline, and what the summaries are built from *)
  summaries : Summaries.t list;  (* one per image, same order *)
  results : Absdom.result list;  (* final settle round, same order *)
  settled : bool;  (* cross-image computed targets settled *)
}

let of_images (images : Cfg.image list) =
  let cfgs = List.map Cfg.analyze images in
  let summaries = List.map Summaries.of_cfg cfgs in
  (* Callee summaries narrow the register clobber at resolved
     JSB/BSBB/CALLS sites, so constants — and with them computed-target
     resolutions and mode facts — survive calls. *)
  let clobber = Summaries.clobber_fn (Summaries.summary_table summaries) in
  let results, settled = Absdom.analyze_images ~clobber cfgs in
  { cfgs; summaries; results; settled }

(* Whether per-site facts may be trusted workload-wide: the settle
   converged and no image left a computed transfer unresolved.  The
   oracle's mode refinement and the liveness pass's constant facts
   share this gate. *)
let mode_sound t =
  t.settled
  && List.for_all (fun r -> r.Absdom.stats.Absdom.mode_sound) t.results
