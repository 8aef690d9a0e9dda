(* faultsim: deterministic power-failure fault-injection campaigns over
   the simulated ARTEMIS runtime, with invariant oracles and one-line
   replay of any failing schedule. *)

open Cmdliner
module F = Artemis_faultsim.Faultsim
module Scenario = Artemis_faultsim.Scenario

let list_sites () =
  Array.iteri (Printf.printf "%2d %s\n") F.sites;
  0

let print_violations campaign =
  List.iter
    (fun (r : F.run_result) ->
      List.iter
        (fun (v : F.violation) ->
          Printf.printf "VIOLATION [%s] %s (replay %s)\n" v.F.oracle v.F.detail
            (F.replay_line ~seed:r.F.seed r.F.schedule))
        r.F.violations)
    (campaign.F.baseline :: campaign.F.runs)

let run scenario_name engine list depth random max_depth seed replay json skip_verify trace_out jobs =
  Artemis.Obs.reset ();
  Artemis.Obs.set_tracing (trace_out <> None);
  let write_trace code =
    (match trace_out with
    | None -> ()
    | Some path ->
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (Artemis.Obs.trace_json ()));
        Printf.eprintf "trace written to %s\n" path);
    code
  in
  write_trace
  @@
  if jobs < 0 then begin
    Printf.eprintf "faultsim: --jobs must be 0 (auto) or positive (got %d)\n" jobs;
    2
  end
  else
  let jobs = if jobs = 0 then Artemis.Par.recommended_jobs () else jobs in
  if list then list_sites ()
  else
    match Scenario.find scenario_name with
    | None ->
        Printf.eprintf "unknown scenario %S (%s)\n" scenario_name
          (String.concat "|"
             (List.map (fun s -> s.Scenario.name) Scenario.all));
        2
    | Some scenario -> (
        let scenario =
          match engine with
          | None -> scenario
          | Some e -> Scenario.with_engine e scenario
        in
        match replay with
        | Some line -> (
            match F.replay scenario ~line with
            | Error msg ->
                Printf.eprintf "bad replay line: %s\n" msg;
                2
            | Ok (result, reproducible) ->
                Printf.printf "replay %s: %s, %d violations, %s\n" line
                  result.F.outcome
                  (List.length result.F.violations)
                  (if reproducible then "reproducible"
                   else "NOT REPRODUCIBLE");
                List.iter
                  (fun (v : F.violation) ->
                    Printf.printf "VIOLATION [%s] %s\n" v.F.oracle v.F.detail)
                  result.F.violations;
                if result.F.violations = [] && reproducible then 0 else 1)
        | None ->
            let check_replays = not skip_verify in
            let campaign =
              match random with
              | Some runs ->
                  F.random_campaign ~jobs ~check_replays scenario ~seed ~runs
                    ~max_depth
              | None -> F.exhaustive ~jobs ~check_replays scenario ~seed ~depth
            in
            if json then F.output_campaign_json stdout campaign
            else begin
              print_string (F.campaign_summary campaign);
              print_violations campaign
            end;
            List.iter (Printf.printf "NOT REPRODUCIBLE: %s\n")
              campaign.F.not_reproducible;
            if F.passed campaign then 0 else 1)

let scenario_arg =
  Arg.(
    value & opt string "quickstart"
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:"Scenario to inject into: $(b,quickstart), $(b,health), their \
              live-adaptation variants $(b,quickstart-adapt) and \
              $(b,health-adapt), the freshness-budgeted \
              $(b,quickstart-fresh), or the deliberately buggy \
              $(b,stale-read) and $(b,war-buggy).")

let engine_arg =
  let engine_conv =
    Arg.enum
      [
        ("interpreted", Artemis.Monitor.Interpreted);
        ("compiled", Artemis.Monitor.Compiled);
        ("table", Artemis.Monitor.Table);
      ]
  in
  Arg.(
    value
    & opt (some engine_conv) None
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:"Monitor execution backend for the campaign: \
              $(b,interpreted), $(b,compiled) (the default) or $(b,table). \
              All oracles must hold under every engine.")

let list_arg =
  Arg.(
    value & flag
    & info [ "list-sites" ] ~doc:"Print the numbered injection sites and exit.")

let depth_arg =
  Arg.(
    value & opt int 1
    & info [ "depth" ] ~docv:"K"
        ~doc:"Bounded-exhaustive depth: up to $(docv) injected failures per run.")

let random_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "random" ] ~docv:"N"
        ~doc:"Run $(docv) seeded random schedules instead of the exhaustive \
              campaign.")

let max_depth_arg =
  Arg.(
    value & opt int 3
    & info [ "max-depth" ] ~docv:"K"
        ~doc:"Maximum failures per random schedule (default 3).")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed (default 42).")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"LINE"
        ~doc:"Replay one schedule, e.g. $(b,42:3@0,7@2); runs it twice and \
              checks the traces are byte-identical.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the full campaign report as JSON.")

let skip_verify_arg =
  Arg.(
    value & flag
    & info [ "skip-replay-check" ]
        ~doc:"Skip the per-run replay determinism check.  Without this \
              flag every campaign run is replayed once, inside the \
              $(b,--jobs) fan-out, and must reproduce its recorded result \
              field for field (trace digest, fired schedule, site hits, \
              outcome, power failures, footprint, violations); any run \
              that does not is printed as NOT REPRODUCIBLE and the exit \
              status is 1.  The report and trace are the same either way.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the campaign as Chrome trace-event JSON to $(docv): one \
           span per run (laid end-to-end on a shared timeline) with \
           instant events at each oracle violation.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Fan campaign runs out over $(docv) domains (default 1); 0 means \
           auto: one worker per core.  The replay check runs inside the \
           same fan-out, each run replayed on the worker that ran it.  \
           The report and any exported trace are byte-identical for \
           every $(docv).")

let cmd =
  let doc =
    "deterministic power-failure fault injection with invariant oracles"
  in
  Cmd.v
    (Cmd.info "faultsim" ~doc)
    Term.(
      const run $ scenario_arg $ engine_arg $ list_arg $ depth_arg $ random_arg
      $ max_depth_arg $ seed_arg $ replay_arg $ json_arg $ skip_verify_arg
      $ trace_out_arg $ jobs_arg)

let () = exit (Cmd.eval' cmd)
