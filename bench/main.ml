(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) on the simulated testbed, then measures the
   three ratios CI gates on: the observability layer's disabled-path
   overhead, the input-freshness oracle's campaign overhead, and the
   parallel campaign runner's scaling.

   Absolute numbers come from the simulator's calibrated cost model; the
   reproduction target is the paper's shape: who wins, by how much, where
   the crossovers are.  EXPERIMENTS.md records paper-vs-measured.
   End-to-end performance of the shipped binaries is measured by
   perfbench/ (BENCHMARK.json), not here.

   Usage: main.exe [--fast] [--json FILE]
     --fast       skip the figure/table regeneration and shrink the
                  scaling campaign and sweeps (CI smoke run)
     --json FILE  write machine-readable results (gate ratios, parallel
                  scaling, scalability sweeps) to FILE *)

open Artemis_experiments

let section title body =
  Printf.printf "\n=== %s ===\n%s\n" title body;
  flush stdout

let reproduce_all () =
  section "Figure 12: total execution time vs charging time (1-10 min)"
    (Fig12.render (Fig12.run ()));
  section "Figure 13: ARTEMIS prevents non-termination (6 min charging)"
    (Fig13.render (Fig13.run ()));
  let fig14 = Fig14.run () in
  section "Figure 14: execution time on continuous power (seconds)"
    (Fig14.render fig14);
  section "Figure 15: overhead breakdown on continuous power (milliseconds)"
    (Fig14.render_overheads fig14);
  section "Figure 16: energy consumption per completed run"
    (Fig16.render (Fig16.run ()));
  section "Table 2: memory requirements (bytes)" (Table2.render (Table2.run ()));
  section "Table 3: feature comparison with prior art" (Table3.render ());
  section
    "Ablation A: monitor deployment alternatives (Section 7), health benchmark"
    (Ablation.render_deployments (Ablation.deployments ()));
  section "Ablation B: collect-counter semantics (DESIGN.md decision 1)"
    (Ablation.render_collect (Ablation.collect_semantics ()));
  section
    "Baseline: checkpoint-based system (TICS-style) on the benchmark workload"
    (Baseline_checkpoint.render (Baseline_checkpoint.run ()));
  section "Timekeeper quality vs property enforcement (6 min charging)"
    (Timekeeper_sweep.render (Timekeeper_sweep.run ()));
  section "Harvester study: emergent charging delays (duty-cycled harvester)"
    (Harvester_study.render (Harvester_study.run ()));
  section "Scalability: monitor overhead vs deployed property count (P3)"
    (Scalability.render (Scalability.run ()));
  section "Scalability: non-watching properties (task-indexed dispatch)"
    (Scalability.render_non_watching (Scalability.run_non_watching ()));
  section "Yield study: reactive soil station, 20 rounds per harvest level"
    (Yield_study.render (Yield_study.run ()));
  section "Adaptation study: live property updates vs full reprogramming"
    (Adaptation_study.render (Adaptation_study.run ()))

module A = Artemis
module Interp = A.Fsm.Interp
module Table = A.Fsm.Table

(* a synthetic trace over the benchmark's real task set; every end event
   carries the payloads any machine might read *)
let kernel_trace =
  let tasks =
    [ "bodyTemp"; "calcAvg"; "heartRate"; "accel"; "classify"; "micSense";
      "filter"; "send" ]
  in
  List.concat
    (List.mapi
       (fun i task ->
         let ts n = A.Time.of_ms (200 * ((2 * i) + n)) in
         [
           { Interp.kind = Interp.Start; task; timestamp = ts 0; path = 1;
             dep_data = []; energy_mj = 20. };
           { Interp.kind = Interp.End; task; timestamp = ts 1; path = 1;
             dep_data = [ ("avgTemp", 36.5) ]; energy_mj = 19. };
         ])
       tasks)

(* observability disabled-overhead contract: table-engine suite dispatch
   at the paper's 8x replication with the metrics registry off (the
   default) and on.  Both kernels step one shared suite, so they touch
   the same heap; the on/off delta prices the counter bumps alone. *)
let obs_kernels () =
  let suite =
    Artemis_monitor.Suite.create ~engine:A.Monitor.Table (A.Nvm.create ())
      (List.map Table.compile (Scalability.replicated_machines 8))
  in
  let trace = Array.of_list kernel_trace in
  let nev = Array.length trace in
  let off () =
    for e = 0 to nev - 1 do
      ignore (A.Suite.step_all suite trace.(e))
    done
  in
  let on () =
    A.Obs.set_metrics true;
    off ();
    A.Obs.set_metrics false
  in
  (off, on)

(* The contract numbers are *ratios* of same-scale kernels, and the
   ratio of two independently timed kernels drifts more than the
   quantities under test: sequential runs reported 5-22% phantom obs
   overhead on a delta that interleaving shows is under 2%.  So every
   ratio in the report is measured as a set: rounds over the same
   kernels, the kernel that goes first rotating from round to round,
   median across rounds - frequency, cache and GC drift then land on all
   sides of each comparison equally. *)
let paired_medians ~rounds ~iters kernels =
  let n = Array.length kernels in
  let sample f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9
  in
  for _ = 1 to max 1 (iters / 10) do
    Array.iter (fun f -> f ()) kernels
  done;
  let samples = Array.make_matrix n rounds 0. in
  for r = 0 to rounds - 1 do
    for i = 0 to n - 1 do
      let k = (r + i) mod n in
      samples.(k).(r) <- sample kernels.(k)
    done
  done;
  Array.map
    (fun row ->
      let b = Array.copy row in
      Array.sort compare b;
      b.(rounds / 2))
    samples

(* The gated quantity is a ~1% delta on a ~20 us kernel, so even fast
   mode keeps the full sampling budget (~5 s): at 5 rounds x 2000
   iterations one run in ten read over the 10% gate on unchanged code. *)
let measure_obs_paired () =
  let off, on = obs_kernels () in
  match paired_medians ~rounds:61 ~iters:2_000 [| off; on |] with
  | [| o; n |] -> (o, n)
  | _ -> assert false

(* input-freshness oracle overhead (PR 7): the same depth-1 exhaustive
   campaign with and without the tracker attached.  quickstart-fresh is
   quickstart plus the freshness tracker on the record chokepoint, so
   the paired ratio prices the oracle's stamp/check/violation work on
   the campaign hot loop - the acceptance gate is <= 5%. *)
let freshness_kernels () =
  let module F = Artemis_faultsim.Faultsim in
  let module S = Artemis_faultsim.Scenario in
  let plain () = ignore (F.exhaustive S.quickstart ~seed:42 ~depth:1) in
  let fresh () = ignore (F.exhaustive S.quickstart_fresh ~seed:42 ~depth:1) in
  (plain, fresh)

(* The quantity gated in CI is the ratio of two ~10 ms campaigns.  It
   takes the obs gate's recipe: 61 alternating rounds whatever [--fast]
   says.  At 15 rounds x 30 iterations unchanged code read over the 5%
   bound in 2-3 runs of 10; at 5 x 3 the median swung about +-4 pp. *)
let measure_freshness_paired () =
  let plain, fresh = freshness_kernels () in
  let rounds = 61 and iters = 30 in
  match paired_medians ~rounds ~iters [| plain; fresh |] with
  | [| p; f |] -> (p, f)
  | _ -> assert false

(* --- parallel campaign runner (PR 5): wall-clock of the depth-2
   quickstart exhaustive campaign at 1/2/4/8 worker domains.  Every
   jobs setting must produce a report byte-identical to sequential -
   the kernel asserts it, so a determinism regression fails the bench
   rather than silently skewing the numbers. *)

type par_row = { pjobs : int; wall_s : float; identical : bool }

let par_campaign ~fast () =
  let depth = if fast then 1 else 2 in
  let timed jobs =
    let t0 = Unix.gettimeofday () in
    let c =
      Artemis_faultsim.Faultsim.exhaustive ~jobs
        Artemis_faultsim.Scenario.quickstart ~seed:42 ~depth
    in
    (c, Unix.gettimeofday () -. t0)
  in
  let c1, w1 = timed 1 in
  let base_json = Artemis_faultsim.Faultsim.campaign_to_json c1 in
  let rows =
    { pjobs = 1; wall_s = w1; identical = true }
    :: List.map
         (fun jobs ->
           let c, w = timed jobs in
           {
             pjobs = jobs;
             wall_s = w;
             identical =
               String.equal base_json
                 (Artemis_faultsim.Faultsim.campaign_to_json c);
           })
         [ 2; 4; 8 ]
  in
  (depth, List.length c1.Artemis_faultsim.Faultsim.runs, rows)

let print_par_campaign (depth, nruns, rows) =
  Printf.printf
    "\n=== par-campaign: quickstart depth-%d (%d runs), %d core(s) ===\n" depth
    nruns
    (Artemis.Par.recommended_jobs ());
  let w1 = (List.hd rows).wall_s in
  List.iter
    (fun r ->
      Printf.printf "jobs %d: %6.3f s  (%.2fx)%s\n" r.pjobs r.wall_s
        (if r.wall_s > 0. then w1 /. r.wall_s else 0.)
        (if r.identical then "" else "  REPORT MISMATCH"))
    rows;
  if List.for_all (fun r -> r.identical) rows then
    print_endline "report byte-identical across all job counts"
  else begin
    prerr_endline "par-campaign: parallel report differs from sequential";
    exit 1
  end;
  flush stdout

(* --- machine-readable output (hand-rolled JSON; no deps) --- *)

let json_of_scalability rows =
  String.concat ",\n"
    (List.map
       (fun (r : Scalability.row) ->
         Printf.sprintf
           {|    { "copies": %d, "monitors": %d, "monitor_ms": %.3f, "app_s": %.3f, "monitor_fram": %d }|}
           r.Scalability.copies r.Scalability.monitors r.Scalability.monitor_ms
           r.Scalability.app_s r.Scalability.monitor_fram)
       rows)

let json_of_non_watching rows =
  String.concat ",\n"
    (List.map
       (fun (r : Scalability.non_watching_row) ->
         Printf.sprintf
           {|    { "extra": %d, "monitors": %d, "monitor_ms": %.3f, "monitor_fram": %d }|}
           r.Scalability.extra r.Scalability.total_monitors
           r.Scalability.nw_monitor_ms r.Scalability.nw_monitor_fram)
       rows)

let json_of_obs (off, on) =
  if off > 0. then
    Printf.sprintf
      {|  "obs": { "off_ns": %.0f, "on_ns": %.0f, "overhead_pct": %.2f }|}
      off on
      ((on -. off) /. off *. 100.)
  else {|  "obs": null|}

let json_of_freshness (plain, fresh) =
  if plain > 0. then
    Printf.sprintf
      {|  "freshness": { "plain_campaign_ns": %.0f, "fresh_campaign_ns": %.0f, "overhead_pct": %.2f }|}
      plain fresh
      ((fresh -. plain) /. plain *. 100.)
  else {|  "freshness": null|}

let json_of_par (depth, nruns, rows) =
  let w1 = (List.hd rows).wall_s in
  let jobs_json =
    String.concat ",\n"
      (List.map
         (fun r ->
           Printf.sprintf
             {|      { "jobs": %d, "wall_s": %.3f, "speedup": %.2f, "identical": %b }|}
             r.pjobs r.wall_s
             (if r.wall_s > 0. then w1 /. r.wall_s else 0.)
             r.identical)
         rows)
  in
  Printf.sprintf
    {|  "par_campaign": {
    "scenario": "quickstart", "depth": %d, "runs": %d, "cores": %d,
    "jobs": [
%s
    ]
  }|}
    depth nruns
    (Artemis.Par.recommended_jobs ())
    jobs_json

let write_json ~file ~obs ~freshness ~scalability ~non_watching ~par =
  let oc = open_out file in
  Printf.fprintf oc
    {|{
  "bench": "paper reproduction CI gates",
%s,
%s,
%s,
  "scalability": [
%s
  ],
  "non_watching": [
%s
  ]
}
|}
    (json_of_obs obs)
    (json_of_freshness freshness)
    (json_of_par par)
    (json_of_scalability scalability)
    (json_of_non_watching non_watching);
  close_out oc;
  Printf.printf "\nwrote %s\n" file

let () =
  let fast = ref false and json = ref None in
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest ->
        fast := true;
        parse rest
    | "--json" :: file :: rest ->
        json := Some file;
        parse rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %S\nusage: %s [--fast] [--json FILE]\n"
          arg Sys.argv.(0);
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not !fast then reproduce_all ();
  let par = par_campaign ~fast:!fast () in
  print_par_campaign par;
  let obs = measure_obs_paired () in
  (let off, on = obs in
   Printf.printf "obs paired off/on: %.0f / %.0f ns (%+.2f%%)\n" off on
     ((on -. off) /. off *. 100.));
  let freshness = measure_freshness_paired () in
  (let plain, fresh = freshness in
   Printf.printf "freshness paired plain/fresh campaign: %.0f / %.0f ns (%+.2f%%)\n"
     plain fresh
     ((fresh -. plain) /. plain *. 100.));
  match !json with
  | None -> ()
  | Some file ->
      let factors = if !fast then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
      let extras = if !fast then [ 0; 8 ] else [ 0; 8; 32; 128 ] in
      let scalability = Scalability.run ~factors () in
      let non_watching = Scalability.run_non_watching ~extras () in
      write_json ~file ~obs ~freshness ~scalability ~non_watching ~par
