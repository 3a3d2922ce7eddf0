(* ab — paired comparison of two builds of the end-to-end benchmark.

     ab [--pairs N] [--seconds T] [--seeds 1,2,...] [--workloads W,...] BASE CHANGE

   Run it from the root of a checkout: it reads the workloads, the
   end-to-end metrics and their bounds, and the default run length from
   BENCHMARK.json.  BASE and CHANGE are the paths of two built
   bench/e2e/e2e.exe executables, for example the parent commit's and a
   change's, each built in its own checkout.  For every workload ab runs
   N pairs, one after the other: pair i runs both sides on seed i of the
   seed list (cycled), the base first in even pairs and the change first
   in odd ones, so neither side always runs on a host warmed by the
   other.  Each run is `E2E --workload W --seed S --seconds T --trace 0`,
   whose last line of output is its JSON result.

   For each end-to-end metric ab prints a Markdown table row: each
   side's median and quartiles, the median of the per-pair ratios
   change/base, a bootstrap 95% confidence interval of that median, and
   the pairs in which the change read better (ties count for neither
   side).  A run that exits nonzero, prints no result, reports
   [correct: false] or lacks one of the metrics is failed, and its pair
   is left out of the table.

   The exit status is 2 when there is nothing to compare: a usage error,
   a failed run of the base, or a workload with no pair in which both
   runs succeeded.  Otherwise it is 1 when a run of the change failed,
   when a larger share of the change's operations failed than of the
   base's, or when the interval of any metric lies wholly beyond that
   metric's bound on the worse side on any workload; and 0 when none of
   that holds.  Progress, one line per run, goes to stderr. *)

open Vax_obs

type metric = { mname : string; higher : bool; bound : float }

type run = { ok : bool; attempted : int; failed : int; values : (string * float) list }

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("ab: " ^ s); exit 2) fmt

let config = "BENCHMARK.json"

let load_config () =
  let j =
    try Json.parse (In_channel.with_open_text config In_channel.input_all)
    with
    | Sys_error e -> die "%s" e
    | Json.Parse_error e -> die "%s: %s" config e
  in
  let list key = match Json.member key j with Some (Json.Arr l) -> l | _ -> [] in
  let str key j = match Json.member key j with Some (Json.Str s) -> s | _ -> "" in
  let metric j =
    match Json.member "bound" j with
    | Some (Json.Num bound) -> { mname = str "name" j; higher = str "better" j = "higher"; bound }
    | _ -> die "%s: end-to-end metric %S has no bound" config (str "name" j)
  in
  let seconds = match Json.member "run_seconds" j with Some (Json.Num s) -> s | _ -> 25. in
  (List.map (str "name") (list "workloads"), List.map metric (list "end_to_end"), seconds)

let run_once exe ~metrics ~workload ~seed ~seconds =
  let args =
    [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
       Printf.sprintf "%g" seconds; "--trace"; "0" |]
  in
  let ic =
    try Unix.open_process_args_in exe args
    with Unix.Unix_error (e, _, _) -> die "%s: %s" exe (Unix.error_message e)
  in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let last =
    match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
    | l :: _ -> l
    | [] -> ""
  in
  match Json.parse last with
  | exception Json.Parse_error _ -> { ok = false; attempted = 1; failed = 1; values = [] }
  | j ->
      let num key = match Json.member key j with Some (Json.Num n) -> int_of_float n | _ -> 0 in
      let values =
        match Json.member "metrics" j with
        | Some (Json.Obj kvs) ->
            List.filter_map
              (fun (k, v) ->
                match Json.member "value" v with Some (Json.Num x) -> Some (k, x) | _ -> None)
              kvs
        | _ -> []
      in
      {
        ok =
          status = Unix.WEXITED 0
          && Json.member "correct" j = Some (Json.Bool true)
          && List.for_all (fun m -> List.mem_assoc m.mname values) metrics;
        attempted = num "attempted";
        failed = num "failed";
        values;
      }

(* Quantile by linear interpolation between closest ranks. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let h = q *. float_of_int (n - 1) in
    let i = truncate h in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* Percentile bootstrap of the median of [xs], with a fixed seed so the
   same runs always give the same interval. *)
let bootstrap_ci xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let rng = Random.State.make [| 30 |] in
  let meds =
    List.init 2000 (fun _ -> median (List.init n (fun _ -> a.(Random.State.int rng n))))
  in
  (quantile meds 0.025, quantile meds 0.975)

let split_commas s = List.filter (( <> ) "") (String.split_on_char ',' s)

let () =
  let pairs = ref 10 and seconds = ref 0. and seeds = ref "1,2,3,4" and workloads = ref "" in
  let exes = ref [] in
  Arg.parse
    [
      ("--pairs", Arg.Set_int pairs, "N  pairs per workload (default 10)");
      ("--seconds", Arg.Set_float seconds, "T  timed seconds per run (default: BENCHMARK.json's run_seconds)");
      ("--seeds", Arg.Set_string seeds, "S,...  seeds the pairs cycle through (default 1,2,3,4)");
      ("--workloads", Arg.Set_string workloads, "W,...  workloads to run (default: all in BENCHMARK.json)");
    ]
    (fun a -> exes := !exes @ [ a ])
    "ab [options] BASE_E2E CHANGE_E2E";
  (* A path without a directory names a file here, not a program on PATH. *)
  let path exe = if Filename.is_implicit exe then Filename.concat Filename.current_dir_name exe else exe in
  let base, change =
    match !exes with
    | [ b; c ] -> (path b, path c)
    | _ -> die "give two e2e executables, BASE and CHANGE"
  in
  let all_workloads, metrics, run_seconds = load_config () in
  let seconds = if !seconds > 0. then !seconds else run_seconds in
  let seeds = List.map (fun s -> try int_of_string s with _ -> die "bad seed %S" s) (split_commas !seeds) in
  let workloads = if !workloads = "" then all_workloads else split_commas !workloads in
  if !pairs < 1 || seeds = [] || workloads = [] then die "nothing to run";
  let regressed = ref [] and all_runs = ref [] and uncompared = ref [] in
  List.iter
    (fun w ->
      let runs =
        List.init !pairs (fun i ->
            let seed = List.nth seeds (i mod List.length seeds) in
            let go (side, exe) =
              let r = run_once exe ~metrics ~workload:w ~seed ~seconds in
              Printf.eprintf "%s pair %d seed %d %s: %s\n%!" w (i + 1) seed side
                (if r.ok then
                   String.concat " "
                     (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) r.values)
                 else "FAILED");
              r
            in
            if i mod 2 = 0 then
              let b = go ("base", base) in
              (b, go ("change", change))
            else
              let c = go ("change", change) in
              (go ("base", base), c))
      in
      all_runs := runs @ !all_runs;
      let ok_runs = List.filter (fun (b, c) -> b.ok && c.ok) runs in
      if ok_runs = [] then uncompared := w :: !uncompared;
      Printf.printf "\n## %s: %d pairs (%d with both runs correct), %g s runs, seeds %s\n\n" w !pairs
        (List.length ok_runs) seconds
        (String.concat "," (List.map string_of_int seeds));
      print_endline
        "| metric | base median [q1, q3] | change median [q1, q3] | paired ratio | 95% CI | change better | bound |";
      print_endline "|---|---|---|---|---|---|---|";
      List.iter
        (fun m ->
          let vals pick =
            List.map (fun p -> List.assoc m.mname (pick p).values) ok_runs
          in
          let bs = vals fst and cs = vals snd in
          if ok_runs <> [] then begin
            let ratios = List.filter Float.is_finite (List.map2 ( /. ) cs bs) in
            let r = median ratios and lo, hi = bootstrap_ci ratios in
            let wins =
              List.length (List.filter (fun x -> if m.higher then x > 1. else x < 1.) ratios)
            in
            if (m.higher && hi < 1. -. m.bound) || ((not m.higher) && lo > 1. +. m.bound) then
              regressed := (w ^ " " ^ m.mname) :: !regressed;
            Printf.printf "| %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | ×%.3f | ×%.3f–×%.3f | %d/%d | %g%% |\n"
              m.mname (median bs) (quantile bs 0.25) (quantile bs 0.75) (median cs)
              (quantile cs 0.25) (quantile cs 0.75) r lo hi wins (List.length ratios)
              (100. *. m.bound)
          end)
        metrics)
    workloads;
  let count f = List.length (List.filter f !all_runs) in
  let tally pick =
    List.fold_left (fun (f, a) p -> let r = pick p in (f + r.failed, a + r.attempted)) (0, 0) !all_runs
  in
  let (bf, ba), (cf, ca) = (tally fst, tally snd) in
  Printf.printf "\nfailed operations: base %d of %d, change %d of %d\n" bf ba cf ca;
  let base_failed = count (fun (b, _) -> not b.ok) and change_failed = count (fun (_, c) -> not c.ok) in
  let failed_more = cf * max ba 1 > bf * max ca 1 in
  List.iter (Printf.printf "ab: %s: no pair in which both runs succeeded\n") (List.rev !uncompared);
  if base_failed > 0 then Printf.printf "ab: %d runs of the base failed\n" base_failed;
  if change_failed > 0 then Printf.printf "ab: %d runs of the change failed\n" change_failed;
  if failed_more then print_endline "ab: the change failed a larger share of operations";
  List.iter (Printf.printf "ab: %s regressed beyond its bound\n") (List.rev !regressed);
  exit
    (if base_failed > 0 || !uncompared <> [] then 2
     else if change_failed > 0 || failed_more || !regressed <> [] then 1
     else 0)
