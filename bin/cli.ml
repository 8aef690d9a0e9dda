(* Options shared by the command-line tools. *)

open Cmdliner

(* --engine: resolved through [Monitor]'s engine table, so every tool
   accepts the same names and a bad one is reported with the valid list *)
let engine_conv =
  let parse name =
    Result.map_error (fun msg -> `Msg msg) (Artemis.Monitor.engine_of_string name)
  in
  let print ppf engine =
    List.iter
      (fun (name, e) -> if e = engine then Format.pp_print_string ppf name)
      Artemis.Monitor.engines
  in
  Arg.conv (parse, print)

(* the engine names as Cmdliner doc markup *)
let engine_doc =
  String.concat " or "
    (List.map (fun (name, _) -> Printf.sprintf "$(b,%s)" name) Artemis.Monitor.engines)

(* --jobs: 0 means one worker per core; a negative count is a usage
   error (exit 2) *)
let with_jobs ~prog jobs k =
  if jobs < 0 then begin
    Printf.eprintf "%s: --jobs must be 0 (auto) or positive (got %d)\n" prog jobs;
    2
  end
  else k (if jobs = 0 then Artemis.Par.recommended_jobs () else jobs)
