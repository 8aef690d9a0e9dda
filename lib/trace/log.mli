(** Append-only execution trace. *)

open Artemis_util

type t

val create : unit -> t
val record : t -> at:Time.t -> Event.t -> unit
val events : t -> Event.timed list
(** In recording order. *)

val length : t -> int

val count : t -> (Event.t -> bool) -> int
val find_all : t -> (Event.t -> bool) -> Event.timed list

val task_attempts : t -> task:string -> int
(** Number of [Task_started] events for [task] over the whole trace. *)

val equal : t -> t -> bool
(** Same events with the same payloads, in the same order, at the same
    microsecond instants.  Stronger than comparing rendered timelines,
    which round timestamps to the displayed unit. *)

val render_events : Event.timed list -> string
(** One {!Event.add_timed} line per event, joined by newlines: the
    timeline renderer shared by {!render_timeline} and Figure 13. *)

val render_timeline : ?limit:int -> t -> string
(** Figure 13-style textual timeline, one event per line; [limit] keeps
    the first N lines and elides the rest. *)
