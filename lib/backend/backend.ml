module Nvm = Artemis_nvm.Nvm
module Device = Artemis_device.Device
module Task = Artemis_task.Task

type outcome = Committed | Interrupted

type instance = {
  recover : unit -> unit;
  execute :
    task:Task.t ->
    context:(unit -> Task.context) ->
    commit:(unit -> unit) ->
    outcome;
  fram_bytes : unit -> int;
}

module type S = sig
  val name : string
  val description : string

  val injection_sites : Nvm.Site.t list
  (** Extra crash windows this backend's commit protocol exposes, in
      numbering order (appended after the NVM and runtime sites by the
      fault-injection engine).  Empty for backends whose commit is the
      single NVM transaction commit. *)

  val bodies : Task.app -> (string * (Task.context -> unit)) list
  (** The WAR-analysis surface: every distinct unit of re-execution,
      named, in first-appearance order.  All current backends re-execute
      whole task bodies, so this is {!Task.bodies} - a backend with a
      different re-execution granularity would override it. *)

  val setup : probe:(Nvm.Site.t -> unit) -> Device.t -> Task.app -> instance
  (** Allocate the backend's persistent cells on [device] and return the
      per-run protocol hooks.  Called once per run by the runtime's
      state construction; [probe] is the fault-injection hook for the
      backend's own [injection_sites]. *)
end

type b = (module S)

let name (module B : S) = B.name
let description (module B : S) = B.description
let injection_sites (module B : S) = B.injection_sites
let bodies (module B : S) app = B.bodies app
let setup (module B : S) ~probe device app = B.setup ~probe device app

(* The reference backend: the paper's ARTEMIS task-transaction protocol
   (task body inside one NVM transaction that also flips the scheduler
   cursor; ImmortalThreads-style monitor calls are layered above by the
   runtime).  It allocates no cells of its own and must reproduce the
   pre-refactor [Runtime.execute_task] behaviour exactly - the runtime
   matrix measures every other backend against it. *)
module Immortal_tasks : S = struct
  let name = "immortal"

  let description =
    "ARTEMIS task transactions (ImmortalThreads-style reference)"

  let injection_sites = []
  let bodies = Task.bodies

  let setup ~probe device _app =
    ignore probe;
    let nvm = Device.nvm device in
    {
      recover = (fun () -> ());
      execute =
        (fun ~task ~context ~commit ->
          Nvm.begin_tx nvm;
          match
            Device.consume device Device.App ~during:task.Task.name
              ~power:task.Task.power ~duration:task.Task.duration ()
          with
          | Device.Interrupted | Device.Starved ->
              (* the open transaction was rolled back by the power failure *)
              Interrupted
          | Device.Completed ->
              task.Task.body (context ());
              commit ();
              Nvm.commit_tx nvm;
              Committed);
      fram_bytes = (fun () -> 0);
    }
end

let immortal : b = (module Immortal_tasks)
