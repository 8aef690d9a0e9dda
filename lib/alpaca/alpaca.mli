(** Alpaca-style checkpoint-free backend (PR 10).

    Alpaca (Maeng, Colin & Lucia; arXiv 1909.06951) achieves
    intermittence without checkpoints: each task {e privatizes} the
    non-volatile cells it writes into scratch buffers and, on task
    completion, commits them with a two-phase protocol - first a
    durable {b log} of the write set (the commit point, one cell
    write), then a {b swap} that publishes the logged values onto
    committed state.  A power failure

    - {e before the log seals} discards the scratch buffers wholesale:
      the task re-executes from clean pre-state, paying no checkpoint
      or restore cost;
    - {e after the log seals} re-enters recovery on every reboot, which
      idempotently re-applies the redo log until the swap completes -
      the task is never re-executed.

    In this simulation the privatization buffers are the NVM
    transaction's pending views ({!Artemis_nvm.Nvm.capture_tx} freezes
    them into redo thunks, {!Artemis_nvm.Nvm.drop_tx} retires them once
    the log is sealed).  The protocol exposes four injection sites
    ([alpaca.log.before/after], [alpaca.swap.before/after]) so the
    fault-injection campaign can crash inside both phases. *)

open Artemis_util
module Backend = Artemis_backend.Backend

module Site : sig
  val log_before : Artemis_nvm.Nvm.Site.t
  val log_after : Artemis_nvm.Nvm.Site.t
  val swap_before : Artemis_nvm.Nvm.Site.t
  val swap_after : Artemis_nvm.Nvm.Site.t
end
(** The four two-phase-commit crash windows, ids 20-23. *)

val injection_sites : Artemis_nvm.Nvm.Site.t list
(** {!Site}'s constants in numbering order (the fault-injection engine
    appends them after the NVM and runtime sites). *)

type config = {
  log_base_cycles : int;  (** fixed cost of sealing the commit log *)
  log_cycles_per_cell : int;  (** per logged cell *)
  swap_base_cycles : int;  (** fixed cost of the publish pass *)
  swap_cycles_per_cell : int;  (** per published cell *)
  mcu_power : Energy.power;
  mcu_frequency_hz : int;
}

val default_config : config
(** 1.2 mW at 1 MHz (MSP430FR-class magnitudes); log 60+40/cell cycles,
    swap 40+30/cell cycles - cheaper than a TICS-style checkpoint, paid
    only on successful completion. *)

val setup :
  ?config:config ->
  probe:(Artemis_nvm.Nvm.Site.t -> unit) ->
  Artemis_device.Device.t ->
  Artemis_task.Task.app ->
  Backend.instance
(** Allocate the 16-byte [alpaca.log] cell (Runtime region) and return
    the protocol hooks.  [recover] finishes a sealed commit; [execute]
    runs one privatized attempt. *)

val backend : Backend.b
(** The registered backend ([name = "alpaca"]), at {!default_config}. *)

(** Test-only chaos hook for the oracle-sensitivity (mutation) suite. *)
module Chaos : sig
  val torn_commit_log : bool ref
  (** The {e recovery} swap loses the youngest Application-region entry
      of the redo log - a broken (non-atomic) swap.  Clean runs are
      unaffected; any injected crash inside the sealed window recovers
      to a torn application state, which the task-atomicity oracle must
      report. *)

  val reset : unit -> unit
end
