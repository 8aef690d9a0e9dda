open Artemis

let test_log_order_and_count () =
  let log = Log.create () in
  Log.record log ~at:Time.zero Event.Boot;
  Log.record log ~at:(Time.of_ms 1) (Event.Task_started { task = "a"; attempt = 1 });
  Log.record log ~at:(Time.of_ms 2) (Event.Task_completed { task = "a" });
  Log.record log ~at:(Time.of_ms 3) (Event.Task_started { task = "a"; attempt = 1 });
  Alcotest.(check int) "length" 4 (Log.length log);
  Alcotest.(check int) "attempts of a" 2 (Log.task_attempts log ~task:"a");
  Alcotest.(check int) "attempts of b" 0 (Log.task_attempts log ~task:"b");
  match Log.events log with
  | { Event.event = Event.Boot; _ } :: _ -> ()
  | _ -> Alcotest.fail "events out of order"

let test_timeline_limit () =
  let log = Log.create () in
  for i = 1 to 10 do
    Log.record log ~at:(Time.of_ms i) (Event.Task_started { task = "t"; attempt = i })
  done;
  let rendered = Log.render_timeline ~limit:3 log in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "3 + elision line" 4 (List.length lines);
  Alcotest.(check string) "elision mentions count" "... (7 more events)"
    (List.nth lines 3)

let test_event_rendering () =
  let show e = Event.to_string e in
  Alcotest.(check string) "reboot" "reboot after 2.00min charging"
    (show (Event.Reboot { charging_delay = Time.of_min 2 }));
  Alcotest.(check string) "failure in task" "power failure during send"
    (show (Event.Power_failure { during_task = Some "send" }));
  Alcotest.(check string) "verdict"
    "monitor MITD_send_accel: violation at send -> restartPath"
    (show
       (Event.Monitor_verdict
          { monitor = "MITD_send_accel"; task = "send"; action = "restartPath" }))

(* One pinned rendering per case of the renderer: every constructor,
   with [Power_failure]'s two shapes. *)
let test_every_event_rendering () =
  List.iter
    (fun (e, want) -> Alcotest.(check string) want want (Event.to_string e))
    [
      (Event.Boot, "boot");
      ( Event.Reboot { charging_delay = Time.of_ms 1_500 },
        "reboot after 1.50s charging" );
      (Event.Power_failure { during_task = Some "send" }, "power failure during send");
      (Event.Power_failure { during_task = None }, "power failure between tasks");
      (Event.Task_started { task = "accel"; attempt = 3 }, "start accel (attempt 3)");
      (Event.Task_completed { task = "accel" }, "end accel");
      ( Event.Monitor_verdict
          { monitor = "MITD_send_accel"; task = "send"; action = "restartPath" },
        "monitor MITD_send_accel: violation at send -> restartPath" );
      ( Event.Runtime_action { action = "skipPath"; task = "send" },
        "runtime action skipPath at send" );
      (Event.Path_started { path = 2 }, "path #2 started");
      (Event.Path_completed { path = 2 }, "path #2 completed");
      (Event.Path_restarted { path = 2; reason = "MITD" }, "path #2 restarted (MITD)");
      ( Event.Path_skipped { path = 3; reason = "maxAttempt" },
        "path #3 skipped (maxAttempt)" );
      ( Event.Monitoring_suspended { path = 1 },
        "monitoring suspended until path #1 completes" );
      (Event.Round_completed { round = 7 }, "round 7 completed");
      (Event.Adaptation_staged { id = 1; bytes = 212 }, "update #1 staged (212 bytes)");
      ( Event.Adaptation_applied { id = 1; generation = 2 },
        "update #1 applied (generation 2)" );
      ( Event.Adaptation_rejected { id = 4; reason = "energy-inadmissible" },
        "update #4 rejected (energy-inadmissible)" );
      (Event.App_completed, "application completed");
      ( Event.Horizon_reached { reason = "max iterations" },
        "simulation horizon reached (max iterations)" );
    ];
  let timed =
    { Event.at = Time.of_us 12_345; event = Event.Task_started { task = "a"; attempt = 1 } }
  in
  Alcotest.(check string) "timed" "[12.35ms] start a (attempt 1)"
    (Format.asprintf "%a" Event.pp_timed timed)

(* The health benchmark's whole log, rendered by the Buffer renderer and
   by the Printf time formatter it replaced (events pinned above). *)
let test_timeline_matches_printf_loop () =
  let { Artemis_experiments.Config.device; _ } =
    Artemis_experiments.Config.run_health Artemis_experiments.Config.Artemis_runtime
      (Artemis_experiments.Config.Intermittent (Time.of_min 6))
  in
  let log = Device.log device in
  let printf_loop events =
    String.concat "\n"
      (List.map
         (fun (e : Event.timed) ->
           Printf.sprintf "[%s] %s"
             (Test_time.printf_reference e.Event.at)
             (Event.to_string e.Event.event))
         events)
  in
  Alcotest.(check bool) "a long log" true (Log.length log > 100);
  Alcotest.(check string) "render_timeline" (printf_loop (Log.events log))
    (Log.render_timeline log);
  Alcotest.(check string) "render_events" (printf_loop (Log.events log))
    (Log.render_events (Log.events log));
  Alcotest.(check string) "limit 0" "... (3 more events)"
    (let small = Log.create () in
     for i = 1 to 3 do
       Log.record small ~at:(Time.of_ms i) Event.Boot
     done;
     Log.render_timeline ~limit:0 small)

(* Log equality sees a 1 us shift that the rendered timeline, and so
   the digest, round away. *)
let test_log_equality_is_exact () =
  let log_at shift =
    let log = Log.create () in
    Log.record log ~at:Time.zero Event.Boot;
    Log.record log ~at:(Time.of_us (30_000_000 + shift))
      (Event.Reboot { charging_delay = Time.of_us (30_000_000 + shift) });
    log
  in
  Alcotest.(check bool) "equal to itself" true (Log.equal (log_at 0) (log_at 0));
  Alcotest.(check bool) "1 us apart: not equal" false
    (Log.equal (log_at 0) (log_at 1));
  Alcotest.(check string) "1 us apart: same digest"
    (Export.log_digest (log_at 0)) (Export.log_digest (log_at 1));
  let longer = log_at 0 in
  Log.record longer ~at:(Time.of_sec 31) Event.App_completed;
  Alcotest.(check bool) "prefix: not equal" false (Log.equal (log_at 0) longer)

let test_stats_helpers () =
  let stats =
    {
      Stats.outcome = Stats.Completed;
      total_time = Time.of_sec 10;
      off_time = Time.of_sec 4;
      app_time = Time.of_sec 5;
      runtime_overhead = Time.of_ms 600;
      monitor_overhead = Time.of_ms 400;
      energy_total = Energy.mj 3.;
      energy_app = Energy.mj 2.;
      energy_runtime = Energy.mj 0.5;
      energy_monitor = Energy.mj 0.5;
      power_failures = 2;
      reboots = 2;
      task_executions = 5;
      task_completions = 3;
      path_restarts = 1;
      path_skips = 0;
    }
  in
  Alcotest.(check bool) "completed" true (Stats.completed stats);
  Alcotest.check Helpers.time "active" (Time.of_sec 6) (Stats.active_time stats);
  Alcotest.check Helpers.time "overhead" (Time.of_sec 1) (Stats.overhead_time stats)

let suite =
  [
    Alcotest.test_case "log order and counting" `Quick test_log_order_and_count;
    Alcotest.test_case "timeline limit" `Quick test_timeline_limit;
    Alcotest.test_case "event rendering" `Quick test_event_rendering;
    Alcotest.test_case "every event constructor renders" `Quick
      test_every_event_rendering;
    Alcotest.test_case "timeline = the Printf formatter it replaced" `Quick
      test_timeline_matches_printf_loop;
    Alcotest.test_case "log equality is exact to the us" `Quick
      test_log_equality_is_exact;
    Alcotest.test_case "stats helpers" `Quick test_stats_helpers;
  ]
