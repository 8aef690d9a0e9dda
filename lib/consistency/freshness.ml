open Artemis_util
module Event = Artemis_trace.Event

module Chaos = struct
  let skip_freshness_stamp = ref false
  let clock_skip_on_recovery = ref false

  let reset () =
    skip_freshness_stamp := false;
    clock_skip_on_recovery := false
end

type violation = {
  v_consumer : string;
  v_source : string;
  v_age_us : int option;
  v_at_us : int;
}

(* A stamp taken inside an open transaction is provisional: it records
   the store's revert count so that any abort or power failure between
   the stamp and its commit point kills it (see seal/valid below). *)
type stamp = { s_at : int; s_provisional : bool; s_reverts : int }

(* A scenario declares a handful of sources, and the tracker runs on
   every task event of every campaign run, so its tables are short
   association lists keyed by [String.equal] rather than hash tables:
   no string is hashed on the hot path. *)
let rec find key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else find key rest

let rec remove key = function
  | [] -> []
  | ((k, _) as b) :: rest -> if String.equal k key then rest else b :: remove key rest

let replace key v l = (key, v) :: remove key l

type t = {
  clock : unit -> int;
  in_tx : unit -> bool;
  revert_count : unit -> int;
  budget_us : int;
  reads : (string * string list) list;
  sources : string list;
  mutable stamps : (string * stamp) list;
  mutable pending : (string * int) list;
      (* producer start times: a crash can land between the producer's
         durable commit and its [Task_completed] record, losing the
         completion event while the data itself persisted.  Path order
         guarantees a consumer only runs after its producer committed
         (a reverted producer is re-executed, emitting a fresh
         [Task_started], before control moves on), so a consumer check
         that finds only a pending entry promotes it - conservatively
         timestamped at the producer's *start*. *)
  mutable skew_us : int;  (* chaos: recovery clock skip *)
  mutable violations : violation list;  (* newest first *)
}

let create ~clock ?(in_tx = fun () -> false) ?(revert_count = fun () -> 0)
    ~budget ~reads () =
  if Time.is_negative budget then
    invalid_arg "Freshness.create: negative budget";
  let sources =
    List.fold_left
      (fun acc (_, srcs) ->
        List.fold_left
          (fun acc s -> if List.exists (String.equal s) acc then acc else s :: acc)
          acc srcs)
      [] reads
  in
  {
    clock;
    in_tx;
    revert_count;
    budget_us = Time.to_us budget;
    reads;
    sources;
    stamps = [];
    pending = [];
    skew_us = 0;
    violations = [];
  }

let now t = t.clock () + t.skew_us

let is_source t source = List.exists (String.equal source) t.sources

let stamp t ~source =
  if (not !Chaos.skip_freshness_stamp) && is_source t source then
    t.stamps <-
      replace source
        {
          s_at = now t;
          s_provisional = t.in_tx ();
          s_reverts = t.revert_count ();
        }
        t.stamps

(* Producer [Task_started]: remember the start time so the stamp is not
   lost if a crash eats the completion event after the commit. *)
let note_started t ~source =
  if (not !Chaos.skip_freshness_stamp) && is_source t source then
    t.pending <- replace source (now t) t.pending

(* Promote a pending start-time entry to a durable stamp (see the
   [pending] field comment for why this is sound). *)
let promote_pending t ~source =
  match find source t.pending with
  | None -> None
  | Some at ->
      let s = { s_at = at; s_provisional = false; s_reverts = 0 } in
      t.stamps <- replace source s t.stamps;
      t.pending <- remove source t.pending;
      Some s

(* A provisional stamp survives to durability only if no revert happened
   since it was taken; both abort_tx and power_failure bump the revert
   count, so a reverted transaction cannot launder the timestamp. *)
let seal t ~source =
  match find source t.stamps with
  | Some s when s.s_provisional ->
      if t.revert_count () = s.s_reverts then
        t.stamps <- replace source { s with s_provisional = false } t.stamps
      else t.stamps <- remove source t.stamps
  | Some _ | None -> ()

let valid t (s : stamp) =
  (not s.s_provisional) || t.revert_count () = s.s_reverts

let check t ~consumer =
  match find consumer t.reads with
  | None -> ()
  | Some srcs ->
      let at = now t in
      List.iter
        (fun source ->
          let stamped =
            match find source t.stamps with
            | Some s when valid t s -> Some s
            | Some _ | None -> promote_pending t ~source
          in
          match stamped with
          | Some s ->
              let age = at - s.s_at in
              if age > t.budget_us then
                t.violations <-
                  { v_consumer = consumer; v_source = source;
                    v_age_us = Some age; v_at_us = at }
                  :: t.violations
          | None ->
              t.violations <-
                { v_consumer = consumer; v_source = source; v_age_us = None;
                  v_at_us = at }
                :: t.violations)
        srcs

let on_event t = function
  | Event.Task_started { task; _ } ->
      check t ~consumer:task;
      note_started t ~source:task
  | Event.Task_completed { task } ->
      check t ~consumer:task;
      stamp t ~source:task;
      seal t ~source:task;
      t.pending <- remove task t.pending
  | Event.Reboot _ ->
      if !Chaos.clock_skip_on_recovery then
        t.skew_us <- t.skew_us + 3_600_000_000
  | _ -> ()

let violations t = List.rev t.violations
let budget t = Time.of_us t.budget_us

let violation_to_string budget v =
  match v.v_age_us with
  | None ->
      Printf.sprintf "%s consumed unstamped input from %s at %dus" v.v_consumer
        v.v_source v.v_at_us
  | Some age ->
      Printf.sprintf "%s consumed %s data aged %dus (budget %dus) at %dus"
        v.v_consumer v.v_source age (Time.to_us budget) v.v_at_us
