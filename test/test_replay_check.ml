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
  (* a standalone replay rebuilds each seed twice more, and neither
     later build differs from the other, so it passes the very same
     runs: only the campaign sees the run it records *)
  List.iter
    (fun line ->
      match F.replay sc ~line with
      | Ok (_, reproducible) ->
          Alcotest.(check bool) ("standalone replay passes " ^ line) true
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

(* A scenario whose odd-numbered builds allocate one extra, never-used
   NVM cell.  The cell changes no event, so every build's trace digest
   equals the honest scenario's, but consecutive builds leave different
   persistent footprints. *)
let alternating_extra_cell (sc : Scenario.t) =
  let builds = Atomic.make 0 in
  let build ~engine ~seed =
    let b = sc.Scenario.build ~engine ~seed in
    if Atomic.fetch_and_add builds 1 mod 2 = 1 then
      ignore
        (Nvm.cell (Device.nvm b.Scenario.device) ~region:Nvm.Application
           ~name:"extra" ~bytes:2 0);
    b
  in
  { sc with Scenario.build }

let test_replay_compares_with_the_run () =
  let sc = alternating_extra_cell Scenario.quickstart in
  let honest = F.exhaustive Scenario.quickstart ~seed:42 ~depth:1 in
  List.iter
    (fun (r : F.run_result) ->
      let line = F.replay_line ~seed:r.F.seed r.F.schedule in
      match F.replay sc ~line with
      | Ok (run, reproducible) ->
          Alcotest.(check string) ("same trace digest " ^ line) r.F.digest
            run.F.digest;
          Alcotest.(check bool) ("footprints differ, not reproducible " ^ line)
            false reproducible
      | Error msg -> Alcotest.fail msg)
    (List.filteri (fun i _ -> i < 3) honest.F.runs)

(* A scenario whose odd-numbered builds recharge for 30 s + 1 us after
   every power failure instead of 30 s.  Every timestamp after the first
   reboot moves by a microsecond or more, which the rendered timeline -
   hundredths of a second at this scale - rounds away: a run and its
   replay share a digest but not an event log. *)
let odd_builds_jitter (sc : Scenario.t) =
  let builds = Atomic.make 0 in
  let build ~engine ~seed =
    let b = sc.Scenario.build ~engine ~seed in
    if Atomic.fetch_and_add builds 1 mod 2 = 1 then
      Device.set_policy b.Scenario.device
        (Charging_policy.Fixed_delay (Time.add (Time.of_sec 30) (Time.of_us 1)));
    b
  in
  { sc with Scenario.build }

let jitter_lines = [ "42:-"; "42:0@0"; "42:4@1" ]

let test_replay_sees_what_the_digest_misses () =
  let sc = odd_builds_jitter Scenario.quickstart in
  List.iter
    (fun line ->
      let seed, schedule = Result.get_ok (F.parse_replay line) in
      (* consecutive builds: one even, one odd *)
      let a = F.run_schedule sc ~seed schedule in
      let b = F.run_schedule sc ~seed schedule in
      Alcotest.(check bool) ("power fails, so the jitter shows " ^ line) true
        (a.F.power_failures > 0);
      Alcotest.(check string) ("same trace digest " ^ line) a.F.digest b.F.digest;
      match F.replay sc ~line with
      | Ok (_, reproducible) ->
          Alcotest.(check bool) ("not reproducible " ^ line) false reproducible
      | Error msg -> Alcotest.fail msg)
    jitter_lines;
  (* in a campaign every run is an odd build and its replay the even one
     after it *)
  let c = F.exhaustive ~jobs:1 ~check_replays:true sc ~seed:42 ~depth:1 in
  List.iter
    (fun line ->
      Alcotest.(check bool) ("campaign flags " ^ line) true
        (List.mem line c.F.not_reproducible))
    (List.tl jitter_lines);
  Alcotest.(check bool) "the campaign fails" false (F.passed c)

(* --- the task-atomicity snapshot cache and version gate against
   their reference --- *)

let regions =
  [ ("runtime", Nvm.Runtime); ("monitor", Nvm.Monitor);
    ("application", Nvm.Application); ("staging", Nvm.Staging) ]

(* Run one fresh build under [schedule] (faultsim's occurrence
   counting), comparing the cached snapshot of every region with the
   uncached Marshal+MD5 reference at every probe point and at the end.
   The same pass checks the version gate the task-atomicity oracle
   relies on: wherever a region's version has not moved since the
   previous probe point, its uncached snapshot must not have either.
   Returns the number of comparisons made. *)
let snapshots_agree (sc : Scenario.t) ~seed schedule =
  let b = sc.Scenario.build ~engine:None ~seed in
  let nvm = Device.nvm b.Scenario.device in
  let checks = ref 0 in
  let last = Array.make (List.length regions) (-1, []) in
  let compare_all where =
    List.iteri
      (fun i (name, region) ->
        incr checks;
        let fail what =
          Alcotest.failf "%s seed %d schedule %s: %s %s at %s" sc.Scenario.name
            seed (F.schedule_to_string schedule) name what where
        in
        let uncached = Nvm.snapshot_region_uncached nvm ~region in
        if Nvm.snapshot_region nvm ~region <> uncached then
          fail "cached snapshot differs";
        let version = Nvm.region_version nvm ~region in
        let version0, snapshot0 = last.(i) in
        if version = version0 && uncached <> snapshot0 then
          fail "changed without a version bump";
        last.(i) <- (version, uncached))
      regions
  in
  let since = Array.make F.site_count 0 and remaining = ref schedule in
  let probe (site : Nvm.Site.t) =
    compare_all site.label;
    let id = F.site_id site in
    let occ = since.(id) in
    since.(id) <- occ + 1;
    match !remaining with
    | (s, o) :: rest when s = id && o = occ ->
        remaining := rest;
        Array.fill since 0 F.site_count 0;
        raise (Nvm.Injected_failure site)
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
    ("standalone replay is checked against the run, not its digest",
      `Quick, test_replay_compares_with_the_run);
    ("replay compares event logs: a 1 us recharge jitter is caught",
      `Quick, test_replay_sees_what_the_digest_misses);
    ("cached region snapshots equal the uncached reference", `Quick,
      test_cached_digests_match_reference);
    ("cached snapshots match the reference under every Nvm.Chaos flag",
      `Quick, test_cached_digests_under_chaos);
  ]
