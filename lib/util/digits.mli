(** Decimal integers written straight into a buffer. *)

val add : Buffer.t -> int -> unit
(** [add buf n] appends [string_of_int n] to [buf] without allocating
    the string or going through the C formatter; the per-run renderers
    (timelines, fingerprints, report rows) call it for every number. *)
