(* Live property adaptation (PR 4): wire format, the crash-atomic
   stage/validate/build/migrate/flip protocol, per-site crash recovery,
   the differential check against a from-scratch replay, and the
   depth-1 fault-injection campaign over the update-window sites. *)

open Artemis
module F = Artemis_faultsim.Faultsim
module Scenario = Artemis_faultsim.Scenario

(* --- wire format --- *)

let test_wire_roundtrip () =
  let updates =
    [
      Adapt.spec_update ~id:1 "a: { maxTries: 3 onFail: skipPath; }";
      Adapt.spec_update ~id:7 ~remove:[ "x"; "y" ] "a: { maxTries: 2 onFail: skipTask; }";
      Adapt.machine_update ~id:2 "machine m { initial state S { on startTask(a); } }";
      Adapt.removal_update ~id:3 [ "old_monitor" ];
    ]
  in
  List.iter
    (fun u ->
      match Adapt.deserialize (Adapt.serialize u) with
      | Ok u' -> Alcotest.(check bool) "roundtrip" true (u = u')
      | Error e -> Alcotest.fail e)
    updates;
  Alcotest.(check int) "wire_bytes is the image length"
    (String.length (Adapt.serialize (List.hd updates)))
    (Adapt.wire_bytes (List.hd updates));
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true
        (Result.is_error (Adapt.deserialize bad)))
    [ ""; "garbage"; "artemis-update/1\nid: 1\npayload: spec";
      "artemis-update/9\nid: 1\npayload: none\n---\n";
      "artemis-update/1\npayload: none\n---\n" ]

let test_script_parsing () =
  (match
     Adapt.parse_script
       {|[ {"at": 5, "spec": "a: { maxTries: 2 onFail: skipPath; }"},
           {"at": 9, "id": 42, "remove": ["m1"]} ]|}
   with
  | Error e -> Alcotest.fail e
  | Ok [ (5, u1); (9, u2) ] ->
      Alcotest.(check int) "default id is position" 1 u1.Adapt.id;
      Alcotest.(check int) "explicit id kept" 42 u2.Adapt.id;
      Alcotest.(check (list string)) "removals" [ "m1" ] u2.Adapt.remove;
      Alcotest.(check bool) "payload none" true (u2.Adapt.payload = None)
  | Ok _ -> Alcotest.fail "wrong shape");
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true
        (Result.is_error (Adapt.parse_script bad)))
    [
      "{}";
      "[ {\"spec\": \"x\"} ]";
      "[ {\"at\": 1, \"spec\": \"s\", \"machines\": \"m\"} ]";
      "not json";
    ]

(* --- a minimal deployment for protocol-level tests --- *)

let counter_src =
  {|machine counter_a {
  persistent var n : int = 0;
  initial state S {
    on startTask(a) { n := n + 1; };
  }
}|}

let counter_v2_src =
  {|machine counter_a {
  persistent var n : int = 0;
  var scratch : int = 0;
  initial state S {
    on startTask(a) { n := n + 2; };
  }
}|}

let counter_incompatible_src =
  {|machine counter_a {
  persistent var n : float = 0.0;
  initial state S {
    on startTask(a) { n := n + 1.0; };
  }
}|}

let small_app () =
  let a = Task.make ~name:"a" ~duration:(Time.of_ms 10) ~power:(Energy.mw 1.) () in
  Task.app ~name:"small" [ { Task.index = 1; tasks = [ a ] } ]

let start_a i =
  {
    Fsm.Interp.kind = Fsm.Interp.Start;
    task = "a";
    timestamp = Time.of_ms (10 * i);
    path = 1;
    dep_data = [];
    energy_mj = 10.;
  }

let setup () =
  let nvm = Nvm.create () in
  let app = small_app () in
  let table = Fsm.Table.compile (Fsm.Parser.parse_machine_exn counter_src) in
  let suite = Suite.create nvm [ table ] in
  Suite.hard_reset suite;
  let mgr = Adapt.create nvm ~app suite in
  (nvm, mgr)

let read_n mgr =
  match Suite.find (Adapt.active mgr) "counter_a" with
  | None -> Alcotest.fail "counter_a not deployed"
  | Some m -> (
      match Monitor.read_var m "n" with
      | Fsm.Ast.Vint n -> n
      | v -> Alcotest.failf "n is %s" (Format.asprintf "%a" Fsm.Ast.pp_value v))

let test_apply_migrates () =
  let _nvm, mgr = setup () in
  for i = 1 to 3 do
    ignore (Suite.step_all_unindexed (Adapt.active mgr) (start_a i))
  done;
  Alcotest.(check int) "pre-update count" 3 (read_n mgr);
  let update = Adapt.machine_update ~id:1 counter_v2_src in
  ignore (Adapt.stage mgr update);
  Alcotest.(check (option int)) "pending" (Some 1) (Adapt.pending_id mgr);
  (match Adapt.apply mgr with
  | Adapt.Applied { id; generation; migrations } ->
      Alcotest.(check int) "id" 1 id;
      Alcotest.(check int) "generation" 1 generation;
      (match migrations with
      | [ { Adapt.monitor = "counter_a"; migrated = [ "n" ]; reset = false } ] -> ()
      | _ -> Alcotest.fail "expected n migrated without reset")
  | _ -> Alcotest.fail "expected Applied");
  Alcotest.(check int) "generation advanced" 1 (Adapt.generation mgr);
  Alcotest.(check (list int)) "applied ids" [ 1 ] (Adapt.applied_ids mgr);
  Alcotest.(check bool) "exactly-once flag" true (Adapt.already_applied mgr 1);
  Alcotest.(check (option int)) "no pending left" None (Adapt.pending_id mgr);
  Alcotest.(check int) "persistent n migrated" 3 (read_n mgr);
  ignore (Suite.step_all_unindexed (Adapt.active mgr) (start_a 4));
  Alcotest.(check int) "new logic (+2) over migrated state" 5 (read_n mgr);
  (* nothing staged: apply is a no-op, never a re-application *)
  Alcotest.(check bool) "idle after commit" true (Adapt.apply mgr = Adapt.Idle)

let test_incompatible_resets () =
  let _nvm, mgr = setup () in
  for i = 1 to 3 do
    ignore (Suite.step_all_unindexed (Adapt.active mgr) (start_a i))
  done;
  ignore (Adapt.stage mgr (Adapt.machine_update ~id:1 counter_incompatible_src));
  (match Adapt.apply mgr with
  | Adapt.Applied { migrations = [ { Adapt.reset = true; migrated = []; _ } ]; _ } ->
      ()
  | _ -> Alcotest.fail "expected hard-reset fallback");
  match Suite.find (Adapt.active mgr) "counter_a" with
  | Some m -> (
      match Monitor.read_var m "n" with
      | Fsm.Ast.Vfloat f -> Alcotest.(check (float 0.0)) "reset to init" 0.0 f
      | _ -> Alcotest.fail "n should be a float now")
  | None -> Alcotest.fail "counter_a not deployed"

let test_validation_rejects () =
  let reject update expect_substring =
    let _nvm, mgr = setup () in
    ignore (Adapt.stage mgr update);
    match Adapt.apply mgr with
    | Adapt.Rejected { reason; _ } ->
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "reason %S mentions %S" reason expect_substring)
          true
          (contains reason expect_substring);
        (* a rejection leaves the deployment untouched and disarmed *)
        Alcotest.(check int) "generation unchanged" 0 (Adapt.generation mgr);
        Alcotest.(check (option int)) "pending cleared" None (Adapt.pending_id mgr)
    | _ -> Alcotest.fail "expected Rejected"
  in
  reject (Adapt.removal_update ~id:1 [ "nope" ]) "no deployed monitor";
  reject (Adapt.removal_update ~id:1 []) "empty update";
  reject (Adapt.spec_update ~id:1 "not a spec {") "spec:";
  reject
    (Adapt.machine_update ~id:1
       "machine m { initial state S { on startTask(zz); } }")
    "unknown task"

(* Crash-recovery: inject a power failure at every adaptation site in
   turn; after the reboot the recovery rule (finish a pending apply,
   else redeliver if not yet applied) must land on exactly one
   application with the migrated state intact. *)
let test_per_site_crash_recovery () =
  List.iter
    (fun (site : Nvm.Site.t) ->
      let nvm, mgr = setup () in
      for i = 1 to 3 do
        ignore (Suite.step_all_unindexed (Adapt.active mgr) (start_a i))
      done;
      let update = Adapt.machine_update ~id:1 counter_v2_src in
      let armed = ref true in
      let probe (s : Nvm.Site.t) =
        if !armed && s.id = site.id then begin
          armed := false;
          raise (Nvm.Injected_failure s)
        end
      in
      (try
         ignore (Adapt.stage ~probe mgr update);
         match Adapt.apply ~probe mgr with
         | Adapt.Applied _ -> ()
         | _ -> Alcotest.failf "%s: expected Applied" site.label
       with Nvm.Injected_failure _ -> Nvm.power_failure nvm);
      (* recovery, as the runtime's update window performs it *)
      (if Adapt.pending_id mgr <> None then
         match Adapt.apply mgr with
         | Adapt.Applied _ -> ()
         | _ -> Alcotest.failf "%s: recovery apply failed" site.label
       else if not (Adapt.already_applied mgr 1) then begin
         ignore (Adapt.stage mgr update);
         match Adapt.apply mgr with
         | Adapt.Applied _ -> ()
         | _ -> Alcotest.failf "%s: redelivery failed" site.label
       end);
      Alcotest.(check (list int)) (site.label ^ ": applied exactly once") [ 1 ]
        (Adapt.applied_ids mgr);
      Alcotest.(check int) (site.label ^ ": generation") 1 (Adapt.generation mgr);
      Alcotest.(check int) (site.label ^ ": migrated state") 3 (read_n mgr))
    Adapt.injection_sites

(* --- runtime integration --- *)

let health_update =
  Adapt.spec_update ~id:1 ~remove:[ "maxDuration_send" ]
    "send: { MITD: 4min dpTask: accel onFail: restartPath maxAttempt: 3 \
     onFail: skipPath Path: 2; }"

let test_run_adaptive () =
  let device = Device.create () in
  let app, _ = Health_app.make (Device.nvm device) in
  let suite = compile_and_deploy_exn device app Health_app.spec_text in
  let before = List.map Monitor.name (Suite.monitors suite) in
  let r = Runtime.run_adaptive ~adaptations:[ (40, health_update) ] device app suite in
  Alcotest.(check bool) "completed" true
    (r.Runtime.adaptive_stats.Stats.outcome = Stats.Completed);
  Alcotest.(check int) "final generation" 1 r.Runtime.final_generation;
  let after = List.map Monitor.name (Suite.monitors r.Runtime.final_suite) in
  Alcotest.(check bool) "maxDuration_send removed" true
    (List.mem "maxDuration_send" before
    && not (List.mem "maxDuration_send" after));
  Alcotest.(check bool) "MITD replaced in place" true
    (List.mem "MITD_send_accel" after);
  match r.Runtime.records with
  | [ rec1 ] -> (
      Alcotest.(check int) "update id" 1 rec1.Runtime.update_id;
      Alcotest.(check bool) "radio was costed" true
        (Time.compare rec1.Runtime.radio_time Time.zero > 0
        && Energy.to_mj rec1.Runtime.radio_energy > 0.);
      match rec1.Runtime.outcome with
      | Runtime.Update_applied { generation = 1; migrations } ->
          Alcotest.(check bool) "MITD attempts migrated" true
            (List.exists
               (fun (m : Adapt.migration) ->
                 m.Adapt.monitor = "MITD_send_accel"
                 && List.mem "attempts" m.Adapt.migrated && not m.Adapt.reset)
               migrations)
      | _ -> Alcotest.fail "expected Update_applied at generation 1")
  | rs -> Alcotest.failf "expected one record, got %d" (List.length rs)

(* Differential check: a run that adapts at iteration K must equal a
   from-scratch replay of its committed journal - same events, same
   update at the same point - modulo nothing: even migrated variables
   are reproduced because migration is deterministic. *)
let test_differential_replay () =
  let device = Device.create () in
  let app, _ = Health_app.make (Device.nvm device) in
  let machines = compile_exn ~app Health_app.spec_text in
  let suite = deploy device machines in
  let result =
    Runtime.run_instrumented ~adaptations:[ (40, health_update) ]
      ~probe:(fun _ -> ())
      device app suite
  in
  Alcotest.(check bool) "update committed in the journal" true
    (List.exists
       (function Runtime.Adapted { id = 1; _ } -> true | _ -> false)
       result.Runtime.journal);
  let gnvm = Nvm.create () in
  let golden0 = Suite.create gnvm (List.map Monitor.table (Suite.monitors suite)) in
  Suite.hard_reset golden0;
  let mgr = Adapt.create gnvm ~app golden0 in
  let golden = ref golden0 in
  List.iter
    (function
      | Runtime.Stepped ev -> ignore (Suite.step_all_unindexed !golden ev)
      | Runtime.Reinited tasks -> Suite.reinit_for_tasks !golden ~tasks
      | Runtime.Adapted { id; generation } ->
          ignore (Adapt.stage mgr health_update);
          (match Adapt.apply mgr with
          | Adapt.Applied a ->
              Alcotest.(check int) "same id" id a.Adapt.id;
              Alcotest.(check int) "same generation" generation a.Adapt.generation
          | _ -> Alcotest.fail "golden re-apply diverged");
          golden := Adapt.active mgr)
    result.Runtime.journal;
  let actual = Suite.monitors result.Runtime.final_suite in
  let gold = Suite.monitors !golden in
  Alcotest.(check (list string)) "same suite composition"
    (List.map Monitor.name gold)
    (List.map Monitor.name actual);
  List.iter2
    (fun a g ->
      Alcotest.(check string)
        (Monitor.name a ^ ": same state")
        (Monitor.current_state g) (Monitor.current_state a);
      List.iter
        (fun (vd : Fsm.Ast.var_decl) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s.%s equal" (Monitor.name a) vd.Fsm.Ast.var_name)
            true
            (Fsm.Ast.same_value
               (Monitor.read_var a vd.Fsm.Ast.var_name)
               (Monitor.read_var g vd.Fsm.Ast.var_name)))
        (Monitor.machine a).Fsm.Ast.vars)
    actual gold

(* The acceptance campaign: a power failure at every dynamic instant of
   the adapting quickstart run - including all eight rt.adapt.* windows
   - never violates an oracle: the update applies exactly once and the
   suite is never torn. *)
let test_faultsim_campaign () =
  let c = F.exhaustive Scenario.quickstart_adapt ~seed:42 ~depth:1 in
  Alcotest.(check int) "zero violations" 0 (F.total_violations c);
  Alcotest.(check int) "all sites covered, including rt.adapt.*"
    (F.site_count - List.length Artemis.Alpaca.injection_sites)
    (List.length c.F.covered);
  Alcotest.(check bool) "no reproducer" true (c.F.shrunk = None)

let test_adaptation_study () =
  let s = Artemis_experiments.Adaptation_study.run () in
  Alcotest.(check int) "two updates studied" 2
    (List.length s.Artemis_experiments.Adaptation_study.rows);
  List.iter
    (fun (r : Artemis_experiments.Adaptation_study.row) ->
      Alcotest.(check bool) (r.label ^ ": applied") true
        (Artemis_experiments.Adaptation_study.applied r);
      Alcotest.(check bool) (r.label ^ ": orders of magnitude cheaper") true
        (Artemis_experiments.Adaptation_study.energy_ratio s r > 10.))
    s.Artemis_experiments.Adaptation_study.rows;
  let rendered = Artemis_experiments.Adaptation_study.render s in
  Alcotest.(check bool) "render mentions the baseline" true
    (String.length rendered > 0)

let suite =
  [
    ("wire roundtrip", `Quick, test_wire_roundtrip);
    ("script parsing", `Quick, test_script_parsing);
    ("apply migrates persistent state", `Quick, test_apply_migrates);
    ("incompatible layout hard-resets", `Quick, test_incompatible_resets);
    ("validation rejects, never half-deploys", `Quick, test_validation_rejects);
    ("per-site crash recovery is exactly-once", `Quick,
      test_per_site_crash_recovery);
    ("run_adaptive swaps the live suite", `Quick, test_run_adaptive);
    ("differential: adapted run == from-scratch replay", `Quick,
      test_differential_replay);
    ("depth-1 campaign over the update window", `Quick, test_faultsim_campaign);
    ("adaptation study beats reprogramming", `Quick, test_adaptation_study);
  ]
