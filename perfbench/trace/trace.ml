(* Traced pass of the perfbench workloads, run in-process.

   The program carries no benchmark instrumentation: this file times
   calls into each layer's public functions from the outside and reads
   the program's own Obs metrics registry for exact work counts.  It
   prints one JSON object on stdout:

     {"metrics": {...}, "checks": {...}}

   perfbench/run.py drives it; see perfbench/README.md for the metrics.

   Usage:
     trace.exe campaign --scenario NAME --depth K --seed N --jobs J --report FILE
     trace.exe fleet --spec JSON --jobs J --report FILE *)

open Artemis
module F = Artemis_faultsim.Faultsim
module Scenario = Artemis_faultsim.Scenario

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let us s = s *. 1e6
let kw bytes = bytes /. float_of_int (Sys.word_size / 8) /. 1000.

let file_mb path = float_of_int (Unix.stat path).Unix.st_size /. 1e6

(* Obs counters the program already registers; [Obs.counter] is
   idempotent by name, so these are the program's own slots. *)
let count_names =
  [ "faultsim_runs"; "faultsim_injected"; "monitor_steps"; "monitor_calls";
    "nvm_writes"; "nvm_tx_commits"; "task_executions"; "power_failures" ]

(* Run [f] with the metrics registry on and return the counters it
   moved.  Only this pass records: every timed pass runs with Obs quiet,
   as the CLIs do. *)
let counted_pass f =
  Obs.reset ();
  Obs.set_metrics true;
  Fun.protect ~finally:(fun () -> Obs.set_metrics false) f;
  let counts =
    List.map
      (fun n -> ("count." ^ n, float_of_int (Obs.counter_value (Obs.counter n))))
      count_names
  in
  Obs.reset ();
  counts

(* ------------------------------------------------------------------ *)
(* Campaign workloads *)

(* The scenario with its [build] timed and counted from outside; shared
   by worker domains, hence the atomics. *)
let watched (sc : Scenario.t) =
  let calls = Atomic.make 0 and ns = Atomic.make 0 in
  let build ~engine ~seed =
    let t0 = now () in
    let b = sc.Scenario.build ~engine ~seed in
    Atomic.incr calls;
    ignore (Atomic.fetch_and_add ns (int_of_float ((now () -. t0) *. 1e9)));
    b
  in
  ({ sc with Scenario.build }, calls, ns)

(* The CLI's replay determinism check (bin/faultsim.ml), call for call. *)
let verify_replays scenario (c : F.campaign) =
  List.filter
    (fun (r : F.run_result) ->
      match F.replay scenario ~line:(F.replay_line ~seed:r.F.seed r.F.schedule) with
      | Ok (_, true) -> false
      | Ok (_, false) | Error _ -> true)
    c.F.runs

(* The simulation layer alone: a fresh build run under a probe that only
   counts site hits and injects the schedule, with none of faultsim's
   oracle bookkeeping. *)
let simulate (b : Scenario.built) schedule =
  let since = Array.make F.site_count 0 and remaining = ref schedule in
  let probe label =
    let id = F.site_id label in
    let occ = since.(id) in
    since.(id) <- occ + 1;
    match !remaining with
    | (s, o) :: rest when s = id && o = occ ->
        remaining := rest;
        Array.fill since 0 F.site_count 0;
        raise (Nvm.Injected_failure label)
    | _ -> ()
  in
  Runtime.run_instrumented ~config:b.Scenario.config
    ~adaptations:b.Scenario.adaptations ~backend:b.Scenario.backend ~probe
    b.Scenario.device b.Scenario.app b.Scenario.suite

let every_nth items ~target =
  let a = Array.of_list items in
  let stride = max 1 (Array.length a / target) in
  List.init ((Array.length a + stride - 1) / stride) (fun i -> a.(i * stride))

let campaign ~scenario:name ~depth ~seed ~jobs ~report =
  let sc =
    match Scenario.find name with
    | Some sc -> sc
    | None -> failwith ("unknown scenario " ^ name)
  in
  (* 1. The CLI's work (campaign, report, replay check) at [jobs]. *)
  let wsc, build_calls, build_ns = watched sc in
  let t_start = now () in
  let c, campaign_s = timed (fun () -> F.exhaustive ~jobs wsc ~seed ~depth) in
  let (), report_s =
    timed (fun () ->
        Out_channel.with_open_bin report (fun oc -> F.output_campaign_json oc c))
  in
  let bad, replay_s = timed (fun () -> verify_replays wsc c) in
  let traced_wall = now () -. t_start in
  let other_s = traced_wall -. campaign_s -. report_s -. replay_s in
  let calls = Atomic.get build_calls in
  let build_us = float_of_int (Atomic.get build_ns) /. 1e3 /. float_of_int calls in
  let runs = List.length c.F.runs in
  let sample = every_nth c.F.runs ~target:300 in
  let digest_j = Digest.to_hex (Digest.string (F.campaign_to_json c)) in
  let total_pf =
    List.fold_left (fun acc (r : F.run_result) -> acc + r.F.power_failures)
      c.F.baseline.F.power_failures c.F.runs
  in
  Gc.compact ();
  (* 2. The same campaign on one domain, for parallel efficiency. *)
  let c1, campaign1_s = timed (fun () -> F.exhaustive ~jobs:1 sc ~seed ~depth) in
  let jobs_identical =
    String.equal digest_j (Digest.to_hex (Digest.string (F.campaign_to_json c1)))
  in
  Gc.compact ();
  (* 3. Per-run layer split over a fixed sample of the campaign's runs. *)
  let mismatches = ref 0 and replay_failures = ref 0 in
  let sim_time = ref 0 and sim_energy = ref 0. in
  let rows =
    List.map
      (fun (r : F.run_result) ->
        let seed = r.F.seed and schedule = r.F.schedule in
        let b, t_build = timed (fun () -> sc.Scenario.build ~engine:None ~seed) in
        let res, t_run = timed (fun () -> simulate b schedule) in
        let digest, t_digest =
          timed (fun () -> Export.log_digest (Device.log b.Scenario.device))
        in
        let stats = res.Runtime.stats in
        if
          digest <> r.F.digest
          || stats.Stats.power_failures <> r.F.power_failures
        then incr mismatches;
        sim_time := !sim_time + Time.to_us stats.Stats.total_time;
        sim_energy := !sim_energy +. Energy.to_uj stats.Stats.energy_total;
        let a0 = Gc.allocated_bytes () in
        let _, t_rs = timed (fun () -> F.run_schedule sc ~seed schedule) in
        let alloc = Gc.allocated_bytes () -. a0 in
        let line = F.replay_line ~seed schedule in
        let replayed, t_replay = timed (fun () -> F.replay sc ~line) in
        (match replayed with
        | Ok (_, true) -> ()
        | Ok (_, false) | Error _ -> incr replay_failures);
        (t_build, t_run, t_digest, t_rs, alloc, t_replay))
      sample
  in
  let col f = List.map f rows in
  (* 4. Oracle cost on the uninjected schedule, as run_schedule minus its
     build, simulation and digest, median of repeated measurements. *)
  let oracle_us =
    median
      (List.init 15 (fun _ ->
           let b, t_build =
             timed (fun () -> sc.Scenario.build ~engine:None ~seed)
           in
           let _, t_run = timed (fun () -> simulate b []) in
           let _, t_digest =
             timed (fun () -> Export.log_digest (Device.log b.Scenario.device))
           in
           let _, t_rs = timed (fun () -> F.run_schedule sc ~seed []) in
           us (t_rs -. t_build -. t_run -. t_digest)))
  in
  (* 5. Exact counts: the CLI's campaign with the registry recording, and
     simulations per replayed run. *)
  let counts = counted_pass (fun () -> ignore (F.exhaustive ~jobs sc ~seed ~depth)) in
  let replayed = every_nth sample ~target:20 in
  let replay_sims =
    counted_pass (fun () ->
        List.iter
          (fun (r : F.run_result) ->
            ignore (F.replay sc ~line:(F.replay_line ~seed:r.F.seed r.F.schedule)))
          replayed)
  in
  let sims_per_run =
    List.assoc "count.faultsim_runs" replay_sims
    /. float_of_int (List.length replayed)
  in
  let metrics =
    [
      ("scenario.build.us", build_us);
      ("scenario.build.calls", float_of_int calls);
      ("runtime.run.us", us (mean (col (fun (_, t, _, _, _, _) -> t))));
      ("faultsim.run_schedule.us", us (mean (col (fun (_, _, _, t, _, _) -> t))));
      ("faultsim.oracles.us", oracle_us);
      ("faultsim.replay.s", replay_s);
      ("faultsim.replay.us", us (mean (col (fun (_, _, _, _, _, t) -> t))));
      ("faultsim.replay.sims_per_run", sims_per_run);
      ("faultsim.campaign.s", campaign_s);
      ("faultsim.report.s", report_s);
      ("faultsim.report.mb", file_mb report);
      ("faultsim.run_schedule.alloc_kw", kw (mean (col (fun (_, _, _, _, a, _) -> a))));
      ("export.log_digest.us", us (mean (col (fun (_, _, t, _, _, _) -> t))));
      ("par.efficiency", campaign1_s /. (float_of_int jobs *. campaign_s));
      ("sim.power_failures", float_of_int total_pf);
      ("sim.time_s", float_of_int !sim_time /. 1e6);
      ("sim.energy_uj", !sim_energy);
      ("other.s", other_s);
      ("trace.wall.s", traced_wall);
    ]
    @ counts
  in
  let checks =
    [
      ("runs", runs);
      ("sampled_runs", List.length sample);
      ("replay_not_reproducible", List.length bad);
      ("sample_replay_failures", !replay_failures);
      ("sample_digest_mismatches", !mismatches);
      ("jobs_reports_differ", if jobs_identical then 0 else 1);
    ]
  in
  (metrics, checks)

(* ------------------------------------------------------------------ *)
(* Fleet workload *)

(* The charging policy each harvester profile installs, built from the
   public profile constructors (mirrors what Fleet.run applies). *)
let policy_of_profile = function
  | Fleet.Scenario_default -> None
  | Fleet.Fixed_delay d -> Some (Charging_policy.Fixed_delay d)
  | Fleet.Duty_cycle { avg_uw } ->
      Some
        (Charging_policy.From_harvester
           (Harvester.Duty_cycle
              { period = Time.of_min 2; on_fraction = 0.5;
                rate = Energy.uw (2. *. avg_uw) }))
  | Fleet.Constant { avg_uw } ->
      Some (Charging_policy.From_harvester (Harvester.Constant (Energy.uw avg_uw)))

let fleet ~spec:spec_text ~jobs ~report =
  let spec =
    match Fleet.spec_of_json spec_text with
    | Ok s -> s
    | Error e -> failwith ("bad fleet spec: " ^ e)
  in
  let n = Fleet.spec_size spec in
  (* 1. The CLI's work (fleet run, report) at [jobs]. *)
  let t_start = now () in
  let r, run_s = timed (fun () -> Fleet.run ~jobs spec) in
  let (), report_s =
    timed (fun () ->
        Out_channel.with_open_bin report (fun oc -> Fleet.output_report_json oc r))
  in
  let traced_wall = now () -. t_start in
  let other_s = traced_wall -. run_s -. report_s in
  let sim_time, sim_energy, sim_pf, not_completed =
    Array.fold_left
      (fun (t, e, pf, nc) (d : Fleet.device_result) ->
        ( t + d.Fleet.active_us + d.Fleet.off_us,
          e +. d.Fleet.energy_uj,
          pf + d.Fleet.power_failures,
          if d.Fleet.outcome = "completed" then nc else nc + 1 ))
      (0, 0., 0, 0) r.Fleet.devices
  in
  (* 2. The same fleet on one domain: parallel efficiency and the
     sequential per-device cost. *)
  let a0 = Gc.allocated_bytes () in
  let r1, run1_s = timed (fun () -> Fleet.run ~jobs:1 spec) in
  let alloc = Gc.allocated_bytes () -. a0 in
  let jobs_identical = r1 = r in
  Gc.compact ();
  (* 3. Per-device layer split over every matrix cell, a few seeds each. *)
  let seeds = List.init (min 50 spec.Fleet.seed_count) (fun i -> spec.Fleet.seed_first + i) in
  let per_backend = Hashtbl.create 8 in
  let builds = ref [] in
  List.iter
    (fun sname ->
      let sc = Option.get (Scenario.find sname) in
      List.iter
        (fun profile ->
          List.iter
            (fun bname ->
              let backend = Option.get (Backends.find bname) in
              List.iter
                (fun seed ->
                  let b, t_build = timed (fun () -> sc.Scenario.build ~engine:None ~seed) in
                  Option.iter (Device.set_policy b.Scenario.device) (policy_of_profile profile);
                  let _, t_run =
                    timed (fun () ->
                        Runtime.run ~config:b.Scenario.config
                          ~adaptations:b.Scenario.adaptations ~backend
                          b.Scenario.device b.Scenario.app b.Scenario.suite)
                  in
                  builds := t_build :: !builds;
                  Hashtbl.replace per_backend bname
                    (t_run :: Option.value ~default:[] (Hashtbl.find_opt per_backend bname)))
                seeds)
            spec.Fleet.backends)
        spec.Fleet.profiles)
    spec.Fleet.scenarios;
  (* 4. Exact counts: the CLI's fleet with the registry recording. *)
  let counts = counted_pass (fun () -> ignore (Fleet.run ~jobs spec)) in
  let all_runs = Hashtbl.fold (fun _ ts acc -> ts @ acc) per_backend [] in
  let metrics =
    [
      ("scenario.build.us", us (mean !builds));
      ("scenario.build.calls", float_of_int n);
      ("runtime.run.us", us (mean all_runs));
    ]
    @ List.map
        (fun b ->
          ( Printf.sprintf "runtime.run.%s.us" b,
            us (mean (Option.value ~default:[] (Hashtbl.find_opt per_backend b))) ))
        spec.Fleet.backends
    @ [
        ("fleet.run.s", run_s);
        ("fleet.device.us", us run1_s /. float_of_int n);
        ("fleet.report.s", report_s);
        ("fleet.device.alloc_kw", kw alloc /. float_of_int n);
        ("par.efficiency", run1_s /. (float_of_int jobs *. run_s));
        ("sim.power_failures", float_of_int sim_pf);
        ("sim.time_s", float_of_int sim_time /. 1e6);
        ("sim.energy_uj", sim_energy);
        ("other.s", other_s);
        ("trace.wall.s", traced_wall);
      ]
    @ counts
  in
  let checks =
    [
      ("devices", n);
      ("not_completed", not_completed);
      ("jobs_reports_differ", if jobs_identical then 0 else 1);
    ]
  in
  (metrics, checks)

(* ------------------------------------------------------------------ *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let obj render kvs =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (Json.quote k) (render v)) kvs)
  ^ "}"

let () =
  let kind = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let scenario = ref "" and depth = ref 1 and seed = ref 42 and jobs = ref 2 in
  let spec = ref "" and report = ref "" in
  let specs =
    [
      ("--scenario", Arg.Set_string scenario, "NAME campaign scenario");
      ("--depth", Arg.Set_int depth, "K campaign depth");
      ("--seed", Arg.Set_int seed, "N campaign seed");
      ("--spec", Arg.Set_string spec, "JSON fleet spec document");
      ("--jobs", Arg.Set_int jobs, "J worker domains");
      ("--report", Arg.Set_string report, "FILE where the report is written");
    ]
  in
  let usage = "trace.exe (campaign|fleet) [options]" in
  Arg.parse_argv ~current:(ref 1) Sys.argv specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !report = "" then (prerr_endline usage; exit 2);
  let metrics, checks =
    match kind with
    | "campaign" ->
        campaign ~scenario:!scenario ~depth:!depth ~seed:!seed ~jobs:!jobs
          ~report:!report
    | "fleet" -> fleet ~spec:!spec ~jobs:!jobs ~report:!report
    | _ ->
        prerr_endline usage;
        exit 2
  in
  Printf.printf "{\"metrics\": %s, \"checks\": %s}\n" (obj num metrics)
    (obj string_of_int checks)
