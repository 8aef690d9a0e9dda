(* Backend conformance battery (PR 10): one functorized set of checks
   instantiated for every registered task-execution backend.  The
   contract a backend signs up for by entering [Artemis.Backends.all]:

   - crash-anywhere safety: a power failure at ANY probed instant of a
     run (depth-1 exhaustive fault injection) leaves committed
     application state a task-atomic prefix, replays monitor calls
     faithfully and leaks no persistent cells;
   - verdict equality: the monitor verdict/action stream equals the
     immortal reference backend's on the same scenario - monitoring is
     backend-independent;
   - WAR cleanliness: the backend's unit-of-re-execution surface has no
     write-after-read hazards on the shipped scenarios;
   - honest footprint: the FRAM bytes a backend declares equal the
     Runtime-region FRAM its [setup] actually allocates;
   - determinism: two identical runs produce byte-identical trace
     digests and cell fingerprints. *)

open Artemis
module F = Artemis_faultsim.Faultsim
module Matrix = Artemis_faultsim.Matrix
module Scenario = Artemis_faultsim.Scenario
module War = Consistency.War

module Battery (B : sig
  val b : Backend.b
end) =
struct
  let name = Backend.name B.b

  let scenario =
    Scenario.with_backend B.b
      ~name:("conformance-" ^ name)
      ~description:("quickstart under the " ^ name ^ " backend")
      Scenario.quickstart

  (* depth-1 exhaustive: every probed instant of the baseline run gets
     crashed exactly once; all six oracles must stay green, and the
     backend's own protocol sites (if any) must actually be covered *)
  let test_crash_anywhere () =
    let c = F.exhaustive scenario ~seed:42 ~depth:1 in
    Alcotest.(check string)
      "baseline completes" "completed" c.F.baseline.F.outcome;
    Alcotest.(check int) "zero violations" 0 (F.total_violations c);
    Alcotest.(check bool) "no reproducer" true (c.F.shrunk = None);
    List.iter
      (fun (site : Nvm.Site.t) ->
        Alcotest.(check bool)
          ("protocol site covered: " ^ site.label)
          true
          (List.mem (F.site_id site) c.F.covered))
      (Backend.injection_sites B.b)

  (* the semantic stream must equal the immortal reference's, on a
     scenario that completes and on one that ends in a freshness DNF *)
  let test_verdict_equality () =
    List.iter
      (fun base ->
        let report =
          Matrix.run ~backends:[ Backend.immortal; B.b ] base ~seed:42
        in
        Alcotest.(check bool)
          (base.Scenario.name ^ ": verdict stream equals immortal")
          true report.Matrix.agreement)
      [ Scenario.quickstart; Scenario.stale_read ]

  (* the backend's re-execution units must be WAR-clean on the shipped
     apps: re-executing after a crash can never observe its own write *)
  let test_war_clean () =
    List.iter
      (fun base ->
        let built = base.Scenario.build ~engine:None ~seed:42 in
        let report =
          War.analyze_bodies
            (Device.nvm built.Scenario.device)
            (Backend.bodies B.b built.Scenario.app)
        in
        Alcotest.(check (list string))
          (base.Scenario.name ^ ": no WAR hazards")
          []
          (List.map (fun h -> h.War.haz_cell) report.War.hazards))
      [ Scenario.quickstart; Scenario.health ]

  (* declared footprint = measured footprint: setup's Runtime-region
     FRAM allocation must match what the instance reports *)
  let test_declared_footprint () =
    let built = scenario.Scenario.build ~engine:None ~seed:42 in
    let nvm = Device.nvm built.Scenario.device in
    let before = Nvm.footprint nvm ~kind:Nvm.Fram ~region:Nvm.Runtime in
    let instance =
      Backend.setup B.b ~probe:ignore built.Scenario.device
        built.Scenario.app
    in
    let after = Nvm.footprint nvm ~kind:Nvm.Fram ~region:Nvm.Runtime in
    Alcotest.(check int)
      "fram_bytes matches allocated Runtime FRAM"
      (after - before)
      (instance.Backend.fram_bytes ())

  (* same seed, same schedule: byte-identical trace digest and cell
     fingerprint *)
  let test_deterministic () =
    let r1 = F.run_schedule scenario ~seed:42 [] in
    let r2 = F.run_schedule scenario ~seed:42 [] in
    Alcotest.(check string) "digest" r1.F.digest r2.F.digest;
    Alcotest.(check string) "footprint" r1.F.footprint r2.F.footprint

  let tests =
    [
      (name ^ ": crash anywhere, all oracles green", `Quick,
       test_crash_anywhere);
      (name ^ ": verdict stream equals immortal", `Quick,
       test_verdict_equality);
      (name ^ ": WAR-clean re-execution units", `Quick, test_war_clean);
      (name ^ ": declared FRAM footprint is honest", `Quick,
       test_declared_footprint);
      (name ^ ": identical runs are byte-identical", `Quick,
       test_deterministic);
    ]
end

(* every backend the registry knows answers the same battery; if a PR
   registers a sixth backend it is conformance-tested automatically *)
let suite =
  List.concat_map
    (fun b ->
      let module M = Battery (struct
        let b = b
      end) in
      M.tests)
    Backends.all

let () =
  assert (List.length Backends.all = 5)
