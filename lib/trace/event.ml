open Artemis_util

type t =
  | Boot
  | Reboot of { charging_delay : Time.t }
  | Power_failure of { during_task : string option }
  | Task_started of { task : string; attempt : int }
  | Task_completed of { task : string }
  | Monitor_verdict of { monitor : string; task : string; action : string }
  | Runtime_action of { action : string; task : string }
  | Path_started of { path : int }
  | Path_completed of { path : int }
  | Path_restarted of { path : int; reason : string }
  | Path_skipped of { path : int; reason : string }
  | Monitoring_suspended of { path : int }
  | Round_completed of { round : int }
  | Adaptation_staged of { id : int; bytes : int }
  | Adaptation_applied of { id : int; generation : int }
  | Adaptation_rejected of { id : int; reason : string }
  | App_completed
  | Horizon_reached of { reason : string }

type timed = { at : Time.t; event : t }

let add buf e =
  let str = Buffer.add_string buf and int = Digits.add buf in
  match e with
  | Boot -> str "boot"
  | Reboot { charging_delay } ->
      str "reboot after ";
      Time.add_to_buffer buf charging_delay;
      str " charging"
  | Power_failure { during_task = Some t } ->
      str "power failure during ";
      str t
  | Power_failure { during_task = None } -> str "power failure between tasks"
  | Task_started { task; attempt } ->
      str "start ";
      str task;
      str " (attempt ";
      int attempt;
      str ")"
  | Task_completed { task } ->
      str "end ";
      str task
  | Monitor_verdict { monitor; task; action } ->
      str "monitor ";
      str monitor;
      str ": violation at ";
      str task;
      str " -> ";
      str action
  | Runtime_action { action; task } ->
      str "runtime action ";
      str action;
      str " at ";
      str task
  | Path_started { path } ->
      str "path #";
      int path;
      str " started"
  | Path_completed { path } ->
      str "path #";
      int path;
      str " completed"
  | Path_restarted { path; reason } ->
      str "path #";
      int path;
      str " restarted (";
      str reason;
      str ")"
  | Path_skipped { path; reason } ->
      str "path #";
      int path;
      str " skipped (";
      str reason;
      str ")"
  | Monitoring_suspended { path } ->
      str "monitoring suspended until path #";
      int path;
      str " completes"
  | Round_completed { round } ->
      str "round ";
      int round;
      str " completed"
  | Adaptation_staged { id; bytes } ->
      str "update #";
      int id;
      str " staged (";
      int bytes;
      str " bytes)"
  | Adaptation_applied { id; generation } ->
      str "update #";
      int id;
      str " applied (generation ";
      int generation;
      str ")"
  | Adaptation_rejected { id; reason } ->
      str "update #";
      int id;
      str " rejected (";
      str reason;
      str ")"
  | App_completed -> str "application completed"
  | Horizon_reached { reason } ->
      str "simulation horizon reached (";
      str reason;
      str ")"

let add_timed buf { at; event } =
  Buffer.add_char buf '[';
  Time.add_to_buffer buf at;
  Buffer.add_string buf "] ";
  add buf event

let render add x =
  let buf = Buffer.create 64 in
  add buf x;
  Buffer.contents buf

let to_string e = render add e
let pp ppf e = Format.pp_print_string ppf (to_string e)
let pp_timed ppf e = Format.pp_print_string ppf (render add_timed e)
