module Obs = Artemis_obs.Obs

type region = Runtime | Monitor | Application | Staging
type kind = Fram | Ram

(* One constant per injection site.  [id] is the site's index in the
   fault-injection engine's numbering, so a probe indexes its per-site
   tables directly; [label] names the site in logs and reports. *)
module Site = struct
  type t = { id : int; label : string }

  let write_before = { id = 0; label = "nvm.write.before" }
  let write_after = { id = 1; label = "nvm.write.after" }
  let tx_write_before = { id = 2; label = "nvm.tx_write.before" }
  let tx_write_after = { id = 3; label = "nvm.tx_write.after" }
  let commit_tx_before = { id = 4; label = "nvm.commit_tx.before" }
  let commit_tx_after = { id = 5; label = "nvm.commit_tx.after" }
end

exception Injected_failure of Site.t

(* Observability: single-branch no-ops unless the registry is enabled,
   so the PR1 fast-path numbers survive (bench tracks the contract). *)
let m_writes = Obs.counter "nvm_writes"
let m_tx_writes = Obs.counter "nvm_tx_writes"
let m_tx_commits = Obs.counter "nvm_tx_commits"
let m_tx_aborts = Obs.counter "nvm_tx_aborts"
let m_power_failures = Obs.counter "nvm_power_failures"

(* Stable numbering contract for the fault-injection engine: sites are
   listed in this order, before the runtime's own sites. *)
let injection_sites =
  Site.
    [
      write_before;
      write_after;
      tx_write_before;
      tx_write_after;
      commit_tx_before;
      commit_tx_after;
    ]

(* Test-only chaos hooks (see test/test_oracle_sensitivity.ml): each
   re-introduces a known-bad behaviour the PR2 campaigns hardened away,
   so the mutation suite can prove the oracles still detect it. *)
module Chaos = struct
  let no_write_join = ref false  (* write_join always writes through *)
  let tx_write_through = ref false  (* tx_write commits immediately *)
  let hazardous_nontx_write = ref false
  (* channel pushes bypass the task transaction (see Channel.push): the
     canonical WAR hazard the static consistency pass exists to flag *)

  let reset () =
    no_write_join := false;
    tx_write_through := false;
    hazardous_nontx_write := false
end

(* --- access recording (PR 7) ---

   The static WAR-hazard analysis observes a task body's reads and
   writes by installing a recorder and running the body once.  The
   recorder is a single optional field: the hot paths pay one branch
   when it is absent, and the access record is only allocated when a
   recording pass is active. *)

type access_op = Read_op | Write_op | Tx_write_op

type access = {
  acc_name : string;
  acc_region : region;
  acc_kind : kind;
  acc_op : access_op;
  acc_in_tx : bool;
}

(* Per-cell hooks let the store manipulate heterogeneous cells uniformly.
   [digest_committed] answers from the cell's digest cache;
   [digest_uncached] re-marshals the committed value every time and is
   kept only as the reference the cache is tested against. *)
type registered = {
  reg_name : string;
  reg_kind : kind;
  reg_bytes : int;
  reset_volatile : unit -> unit;
  digest_committed : unit -> string;
  digest_uncached : unit -> string;
  digest_logical : unit -> string;
}

(* One transactionally-dirty cell: how to publish its pending value and
   how to drop it.  Tracking these per-transaction keeps abort and
   power-failure rollback O(dirty cells), not O(all cells).  [capture]
   (PR 10) freezes the cell's current pending value into a standalone
   redo thunk, so a checkpoint-free runtime can log the write set and
   re-apply it after the transaction's pending views are gone. *)
type dirty = {
  d_name : string;
  d_region : region;
  commit : unit -> unit;
  discard : unit -> unit;
  capture : unit -> unit -> unit;
}

(* A region's version counter, shared by the region's cells so that an
   assignment bumps it without finding the region first. *)
type version = { mutable v : int }

type t = {
  obs : Obs.ctx;  (* recording surface; per-device since PR 5 *)
  names : (region * string, unit) Hashtbl.t;  (* duplicate detection *)
  footprints : int array;  (* (kind, region) -> declared bytes *)
  mutable volatiles : registered list;  (* Ram cells only *)
  region_cells : registered list array;
      (* per region, reverse allocation order *)
  versions : version array;
      (* per region: committed assignments + cell allocations, see
         [region_version] *)
  mutable tx_open : bool;
  mutable tx_dirty : dirty list;  (* reverse write order *)
  mutable reverts : int;  (* aborts + power failures, see [revert_count] *)
  mutable tx_begin_us : int;  (* span start when tracing is enabled *)
  mutable probe : (Site.t -> unit) option;
      (* fault-injection hook; fired around state-changing operations with
         the site, and allowed to raise [Injected_failure] *)
  mutable recorder : (access -> unit) option;
      (* access-set recorder for the static WAR-hazard pass (PR 7) *)
}

type 'a cell = {
  store : t;
  name : string;
  region : region;
  kind : kind;
  initial : 'a;
  mutable committed : 'a;  (* assign only through [set_committed] *)
  mutable committed_md5 : string;
      (* digest of [committed]; [""] (never an MD5) when stale *)
  mutable pending : 'a option;
  version : version;  (* its region's, [t.versions] *)
}

let bump version = version.v <- version.v + 1

(* The one way [committed] changes: every assignment clears the digest
   cache, so a snapshot re-digests exactly the cells written since the
   previous one, and moves its region's version, so a reader holding a
   snapshot knows whether it may still be current.  Cell values are
   immutable, so no in-place mutation can go stale behind either. *)
let set_committed c v =
  c.committed <- v;
  c.committed_md5 <- "";
  bump c.version

let digest_value v = Digest.string (Marshal.to_string v [ Marshal.Closures ])

let region_slot = function
  | Runtime -> 0 | Monitor -> 1 | Application -> 2 | Staging -> 3

let footprint_slot kind region =
  let k = match kind with Fram -> 0 | Ram -> 1 in
  (k * 4) + region_slot region

let create ?obs () =
  {
    obs = (match obs with Some o -> o | None -> Obs.current ());
    names = Hashtbl.create 64;
    footprints = Array.make 8 0;
    volatiles = [];
    region_cells = Array.make 4 [];
    versions = Array.init 4 (fun _ -> { v = 0 });
    tx_open = false;
    tx_dirty = [];
    reverts = 0;
    tx_begin_us = 0;
    probe = None;
    recorder = None;
  }

let obs t = t.obs
let set_probe t p = t.probe <- p
let fire t site = match t.probe with None -> () | Some p -> p site
let set_recorder t r = t.recorder <- r

let record_access c op =
  match c.store.recorder with
  | None -> ()
  | Some f ->
      f
        {
          acc_name = c.name;
          acc_region = c.region;
          acc_kind = c.kind;
          acc_op = op;
          acc_in_tx = c.store.tx_open;
        }

let cell t ~region ?(kind = Fram) ~name ~bytes init =
  if bytes < 0 then invalid_arg "Nvm.cell: negative size";
  if Hashtbl.mem t.names (region, name) then
    invalid_arg (Printf.sprintf "Nvm.cell: duplicate cell %S" name);
  Hashtbl.replace t.names (region, name) ();
  let slot = region_slot region in
  let c =
    { store = t; name; region; kind; initial = init; committed = init;
      committed_md5 = ""; pending = None; version = t.versions.(slot) }
  in
  let registered =
    {
      reg_name = name;
      reg_kind = kind;
      reg_bytes = bytes;
      reset_volatile = (fun () -> if kind = Ram then set_committed c c.initial);
      digest_committed =
        (fun () ->
          if c.committed_md5 = "" then c.committed_md5 <- digest_value c.committed;
          c.committed_md5);
      digest_uncached = (fun () -> digest_value c.committed);
      digest_logical =
        (fun () ->
          let v = match c.pending with Some p -> p | None -> c.committed in
          digest_value v);
    }
  in
  t.region_cells.(slot) <- registered :: t.region_cells.(slot);
  bump c.version;
  t.footprints.(footprint_slot kind region) <-
    t.footprints.(footprint_slot kind region) + bytes;
  if kind = Ram then t.volatiles <- registered :: t.volatiles;
  c

let read c =
  (match c.store.recorder with None -> () | Some _ -> record_access c Read_op);
  match c.pending with Some v -> v | None -> c.committed

let write c v =
  (match (c.kind, c.pending) with
  | Fram, Some _ ->
      invalid_arg
        (Printf.sprintf "Nvm.write: cell %S has an uncommitted tx value" c.name)
  | (Fram | Ram), _ -> ());
  record_access c Write_op;
  Obs.Ctx.incr c.store.obs m_writes;
  fire c.store Site.write_before;
  set_committed c v;
  fire c.store Site.write_after

let begin_tx t =
  if t.tx_open then invalid_arg "Nvm.begin_tx: transaction already open";
  t.tx_open <- true;
  t.tx_dirty <- [];
  if Obs.Ctx.tracing_enabled t.obs then t.tx_begin_us <- Obs.Ctx.now_us t.obs

(* The span covers begin_tx to the close; it is emitted as one balanced
   pair at the close so a crash inside the transaction (which aborts via
   [power_failure]) still produces a well-formed trace. *)
let close_tx_span t name =
  if Obs.Ctx.tracing_enabled t.obs then
    Obs.Ctx.span t.obs ~cat:"nvm" ~begin_us:t.tx_begin_us
      ~end_us:(Obs.Ctx.now_us t.obs) name

let tx_write c v =
  if not c.store.tx_open then invalid_arg "Nvm.tx_write: no open transaction";
  if c.kind = Ram then
    invalid_arg (Printf.sprintf "Nvm.tx_write: cell %S is volatile" c.name);
  record_access c Tx_write_op;
  Obs.Ctx.incr c.store.obs m_tx_writes;
  fire c.store Site.tx_write_before;
  (if !Chaos.tx_write_through then set_committed c v
   else begin
     (match c.pending with
     | None ->
         let commit () =
           (match c.pending with Some p -> set_committed c p | None -> ());
           c.pending <- None
         in
         let discard () = c.pending <- None in
         let capture () =
           let v = match c.pending with Some p -> p | None -> c.committed in
           fun () -> set_committed c v
         in
         c.store.tx_dirty <-
           { d_name = c.name; d_region = c.region; commit; discard; capture }
           :: c.store.tx_dirty
     | Some _ -> ());
     c.pending <- Some v
   end);
  fire c.store Site.tx_write_after

(* Join the ambient transaction if one is open, else write through.  Used
   by code that must be durable in isolation but atomic when an enclosing
   step wraps several updates into one commit (immortal monitor steps,
   path restarts). *)
let write_join c v =
  if c.store.tx_open && c.kind = Fram && not !Chaos.no_write_join then
    tx_write c v
  else write c v

let commit_tx t =
  if not t.tx_open then invalid_arg "Nvm.commit_tx: no open transaction";
  fire t Site.commit_tx_before;
  List.iter (fun d -> d.commit ()) (List.rev t.tx_dirty);
  t.tx_dirty <- [];
  t.tx_open <- false;
  Obs.Ctx.incr t.obs m_tx_commits;
  close_tx_span t "tx";
  fire t Site.commit_tx_after

(* --- checkpoint-free (Alpaca-style) commit support (PR 10) ---

   A two-phase runtime first freezes the open transaction's write set
   into standalone redo thunks ([capture_tx]), seals them behind a
   durable log cell, then closes the transaction without publishing
   anything ([drop_tx]) and replays the thunks onto committed state.
   The thunks hold the captured values, not the cells' pending views,
   so they survive the rollback a power failure performs on the open
   transaction. *)

let capture_tx t =
  if not t.tx_open then invalid_arg "Nvm.capture_tx: no open transaction";
  List.rev t.tx_dirty
  |> List.map (fun d -> (d.d_name, d.d_region, d.capture ()))

let drop_tx t =
  if not t.tx_open then invalid_arg "Nvm.drop_tx: no open transaction";
  List.iter (fun d -> d.discard ()) t.tx_dirty;
  t.tx_dirty <- [];
  t.tx_open <- false;
  (* the write set was captured for redo: logically this is a commit *)
  Obs.Ctx.incr t.obs m_tx_commits;
  close_tx_span t "tx"

let abort_tx t =
  if not t.tx_open then invalid_arg "Nvm.abort_tx: no open transaction";
  t.reverts <- t.reverts + 1;
  List.iter (fun d -> d.discard ()) t.tx_dirty;
  t.tx_dirty <- [];
  t.tx_open <- false;
  Obs.Ctx.incr t.obs m_tx_aborts;
  close_tx_span t "tx_aborted"

let in_tx t = t.tx_open

let power_failure t =
  Obs.Ctx.incr t.obs m_power_failures;
  t.reverts <- t.reverts + 1;
  if t.tx_open then abort_tx t;
  List.iter (fun r -> r.reset_volatile ()) t.volatiles

let revert_count t = t.reverts

let footprint t ~kind ~region = t.footprints.(footprint_slot kind region)
let region_version t ~region = t.versions.(region_slot region).v

(* [region_cells] is in reverse allocation order, so one [rev_map]
   yields allocation order. *)
let in_region f t ~region = List.rev_map f t.region_cells.(region_slot region)

let cell_names = in_region (fun r -> r.reg_name)
let snapshot_with digest = in_region (fun r -> (r.reg_name, digest r))
let snapshot_region = snapshot_with (fun r -> r.digest_committed ())
let snapshot_region_uncached = snapshot_with (fun r -> r.digest_uncached ())
let snapshot_region_logical = snapshot_with (fun r -> r.digest_logical ())
