(* The campaign replay check: every run is replayed once inside the
   fan-out and must reproduce its recorded result.  Pins that replays
   leave the campaign's trace and counters untouched, that the check
   catches a run which only its own record can expose, and that the
   memoised task-atomicity snapshots equal the uncached reference. *)

open Artemis
module F = Artemis_faultsim.Faultsim
module Scenario = Artemis_faultsim.Scenario

let count_substring haystack needle =
  let n = String.length needle and l = String.length haystack in
  let rec go i acc =
    if i + n > l then acc
    else if String.sub haystack i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let m_runs = Obs.counter "faultsim_runs"

(* One quickstart depth-1 campaign recorded into a fresh tracing and
   metrics context: its report, exported trace and run counter. *)
let observed_campaign ~jobs ~check_replays =
  let ctx = Obs.Ctx.create () in
  Obs.Ctx.set_tracing ctx true;
  Obs.Ctx.set_metrics ctx true;
  let c =
    Obs.with_ctx ctx (fun () ->
        F.exhaustive ~jobs ~check_replays Scenario.quickstart ~seed:42 ~depth:1)
  in
  (c, Obs.Ctx.trace_json ctx, Obs.Ctx.counter_value ctx m_runs)

let test_replays_stay_out_of_the_trace () =
  let reference, trace, runs_counted =
    observed_campaign ~jobs:1 ~check_replays:false
  in
  let runs = List.length reference.F.runs in
  Alcotest.(check int) "one faultsim span per run plus the baseline"
    (runs + 1)
    (count_substring trace "\"cat\": \"faultsim\", \"ph\": \"B\"");
  Alcotest.(check int) "faultsim_runs counts runs plus the baseline"
    (runs + 1) runs_counted;
  List.iter
    (fun jobs ->
      let c, t, counted = observed_campaign ~jobs ~check_replays:true in
      let label = Printf.sprintf "jobs %d, replay check on" jobs in
      Alcotest.(check (list string)) (label ^ ": all reproducible") []
        c.F.not_reproducible;
      Alcotest.(check string) (label ^ ": same report")
        (F.campaign_to_json reference) (F.campaign_to_json c);
      Alcotest.(check string) (label ^ ": byte-identical trace") trace t;
      Alcotest.(check int) (label ^ ": replays move no counter") runs_counted
        counted)
    [ 1; 2 ]

(* A scenario whose first build of every seed differs observably (its
   device recharges for a different time after each power failure) from
   all later builds of that seed.  A campaign run is the first build of its seed, so only a check
   against the run's own record can see it: the standalone replay
   rebuilds the seed twice more, and those two builds agree. *)
let first_build_differs (sc : Scenario.t) =
  let seen = Hashtbl.create 64 and lock = Mutex.create () in
  let build ~engine ~seed =
    let first =
      Mutex.protect lock (fun () ->
          let first = not (Hashtbl.mem seen seed) in
          Hashtbl.replace seen seed ();
          first)
    in
    let b = sc.Scenario.build ~engine ~seed in
    if first then
      Device.set_policy b.Scenario.device
        (Charging_policy.Fixed_delay (Time.of_ms 7_000));
    b
  in
  { sc with Scenario.build }

let test_replay_check_has_teeth () =
  let sc = first_build_differs Scenario.quickstart in
  let c =
    F.random_campaign ~jobs:2 ~check_replays:true sc ~seed:7 ~runs:12
      ~max_depth:2
  in
  let lines =
    List.map (fun (r : F.run_result) -> F.replay_line ~seed:r.F.seed r.F.schedule)
      c.F.runs
  in
  Alcotest.(check int) "no oracle violation" 0 (F.total_violations c);
  Alcotest.(check (list string)) "every run is reported not reproducible"
    lines c.F.not_reproducible;
  Alcotest.(check bool) "the campaign fails (CLI exit 1)" false (F.passed c);
  (* the replay-against-replay check passes the very same runs *)
  List.iter
    (fun line ->
      match F.replay sc ~line with
      | Ok (_, reproducible) ->
          Alcotest.(check bool) ("replay vs replay passes " ^ line) true
            reproducible
      | Error msg -> Alcotest.fail msg)
    lines;
  let honest =
    F.random_campaign ~jobs:2 ~check_replays:true Scenario.quickstart ~seed:7
      ~runs:12 ~max_depth:2
  in
  Alcotest.(check (list string)) "control: honest scenario reproduces" []
    honest.F.not_reproducible;
  Alcotest.(check bool) "control: campaign passes" true (F.passed honest)

(* --- the task-atomicity snapshot cache against its reference --- *)

let regions = [ Nvm.Runtime; Nvm.Monitor; Nvm.Application; Nvm.Staging ]

(* Run one fresh build under [schedule] (faultsim's occurrence
   counting), comparing the cached snapshot of every region with the
   uncached Marshal+MD5 reference at every probe point and at the end.
   Returns the number of comparisons made. *)
let snapshots_agree (sc : Scenario.t) ~seed schedule =
  let b = sc.Scenario.build ~engine:None ~seed in
  let nvm = Device.nvm b.Scenario.device in
  let checks = ref 0 in
  let compare_all where =
    List.iter
      (fun region ->
        incr checks;
        if Nvm.snapshot_region nvm ~region <> Nvm.snapshot_region_uncached nvm ~region
        then
          Alcotest.failf "%s seed %d schedule %s: cached snapshot differs at %s"
            sc.Scenario.name seed (F.schedule_to_string schedule) where)
      regions
  in
  let since = Array.make F.site_count 0 and remaining = ref schedule in
  let probe label =
    compare_all label;
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
  ignore
    (Runtime.run_instrumented ~config:b.Scenario.config
       ~adaptations:b.Scenario.adaptations ~backend:b.Scenario.backend ~probe
       b.Scenario.device b.Scenario.app b.Scenario.suite);
  compare_all "end-of-run";
  !checks

let digest_scenarios =
  [ Scenario.quickstart; Scenario.health; Scenario.quickstart_adapt;
    Scenario.health_adapt ]

let random_schedule prng =
  List.init (Prng.int_range prng ~lo:1 ~hi:3) (fun _ ->
      ( Prng.int_range prng ~lo:0 ~hi:(F.site_count - 1),
        Prng.int_range prng ~lo:0 ~hi:12 ))

(* Every backend under every scenario: the uninjected run plus
   [schedules] seeded random schedules each. *)
let sweep_backends_and_scenarios ~seed ~schedules =
  let prng = Prng.create ~seed in
  let checks = ref 0 in
  List.iter
    (fun sc ->
      List.iter
        (fun backend ->
          let sc =
            Scenario.with_backend backend ~name:sc.Scenario.name
              ~description:sc.Scenario.description sc
          in
          List.iter
            (fun schedule ->
              checks :=
                !checks
                + snapshots_agree sc ~seed:(Prng.int_range prng ~lo:0 ~hi:1000)
                    schedule)
            ([] :: List.init schedules (fun _ -> random_schedule prng)))
        Backends.all)
    digest_scenarios;
  Alcotest.(check bool) "compared at probe points" true (!checks > 0)

let test_cached_digests_match_reference () =
  sweep_backends_and_scenarios ~seed:11 ~schedules:2

let test_cached_digests_under_chaos () =
  List.iter
    (fun flag ->
      flag := true;
      Fun.protect ~finally:Nvm.Chaos.reset (fun () ->
          sweep_backends_and_scenarios ~seed:23 ~schedules:1))
    [ Nvm.Chaos.no_write_join; Nvm.Chaos.tx_write_through;
      Nvm.Chaos.hazardous_nontx_write ]

let suite =
  [
    ("replays add no span or counter, any jobs", `Quick,
      test_replays_stay_out_of_the_trace);
    ("replay check catches a first-build-only divergence", `Quick,
      test_replay_check_has_teeth);
    ("cached region snapshots equal the uncached reference", `Quick,
      test_cached_digests_match_reference);
    ("cached snapshots match the reference under every Nvm.Chaos flag",
      `Quick, test_cached_digests_under_chaos);
  ]
