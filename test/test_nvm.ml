open Artemis

let test_write_through () =
  let nvm = Nvm.create () in
  let c = Nvm.cell nvm ~region:Nvm.Monitor ~name:"x" ~bytes:4 0 in
  Nvm.write c 7;
  Alcotest.(check int) "visible" 7 (Nvm.read c);
  Nvm.power_failure nvm;
  Alcotest.(check int) "survives failure" 7 (Nvm.read c)

let test_tx_commit () =
  let nvm = Nvm.create () in
  let c = Nvm.cell nvm ~region:Nvm.Application ~name:"x" ~bytes:4 0 in
  Nvm.begin_tx nvm;
  Nvm.tx_write c 1;
  Alcotest.(check int) "read own writes" 1 (Nvm.read c);
  Nvm.tx_write c 2;
  Nvm.commit_tx nvm;
  Alcotest.(check int) "committed" 2 (Nvm.read c);
  Nvm.power_failure nvm;
  Alcotest.(check int) "durable" 2 (Nvm.read c)

let test_tx_abort_on_power_failure () =
  let nvm = Nvm.create () in
  let c = Nvm.cell nvm ~region:Nvm.Application ~name:"x" ~bytes:4 10 in
  Nvm.begin_tx nvm;
  Nvm.tx_write c 99;
  Nvm.power_failure nvm;
  Alcotest.(check int) "rolled back" 10 (Nvm.read c);
  Alcotest.(check bool) "tx closed" false (Nvm.in_tx nvm)

let test_ram_reset () =
  let nvm = Nvm.create () in
  let r = Nvm.cell nvm ~region:Nvm.Runtime ~kind:Nvm.Ram ~name:"scratch" ~bytes:2 5 in
  Nvm.write r 42;
  Nvm.power_failure nvm;
  Alcotest.(check int) "volatile reset to initial" 5 (Nvm.read r)

let test_mixed_write_disciplines_rejected () =
  let nvm = Nvm.create () in
  let c = Nvm.cell nvm ~region:Nvm.Application ~name:"x" ~bytes:4 0 in
  Nvm.begin_tx nvm;
  Nvm.tx_write c 1;
  Alcotest.check_raises "direct write with pending tx value"
    (Invalid_argument "Nvm.write: cell \"x\" has an uncommitted tx value")
    (fun () -> Nvm.write c 2);
  Nvm.abort_tx nvm

let test_tx_discipline_errors () =
  let nvm = Nvm.create () in
  let c = Nvm.cell nvm ~region:Nvm.Application ~name:"x" ~bytes:4 0 in
  Alcotest.check_raises "tx_write outside tx"
    (Invalid_argument "Nvm.tx_write: no open transaction") (fun () ->
      Nvm.tx_write c 1);
  Alcotest.check_raises "commit outside tx"
    (Invalid_argument "Nvm.commit_tx: no open transaction") (fun () ->
      Nvm.commit_tx nvm);
  Nvm.begin_tx nvm;
  Alcotest.check_raises "nested tx"
    (Invalid_argument "Nvm.begin_tx: transaction already open") (fun () ->
      Nvm.begin_tx nvm);
  Nvm.abort_tx nvm;
  let r = Nvm.cell nvm ~region:Nvm.Runtime ~kind:Nvm.Ram ~name:"r" ~bytes:1 0 in
  Nvm.begin_tx nvm;
  Alcotest.check_raises "tx_write on volatile cell"
    (Invalid_argument "Nvm.tx_write: cell \"r\" is volatile") (fun () ->
      Nvm.tx_write r 1);
  Nvm.abort_tx nvm

let test_duplicate_cells_rejected () =
  let nvm = Nvm.create () in
  ignore (Nvm.cell nvm ~region:Nvm.Monitor ~name:"x" ~bytes:1 ());
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Nvm.cell: duplicate cell \"x\"") (fun () ->
      ignore (Nvm.cell nvm ~region:Nvm.Monitor ~name:"x" ~bytes:1 ()));
  (* same name in another region is fine *)
  ignore (Nvm.cell nvm ~region:Nvm.Runtime ~name:"x" ~bytes:1 ())

let test_footprint_accounting () =
  let nvm = Nvm.create () in
  ignore (Nvm.cell nvm ~region:Nvm.Monitor ~name:"a" ~bytes:4 ());
  ignore (Nvm.cell nvm ~region:Nvm.Monitor ~name:"b" ~bytes:8 ());
  ignore (Nvm.cell nvm ~region:Nvm.Runtime ~name:"c" ~bytes:2 ());
  ignore (Nvm.cell nvm ~region:Nvm.Runtime ~kind:Nvm.Ram ~name:"d" ~bytes:2 ());
  Alcotest.(check int) "monitor fram" 12
    (Nvm.footprint nvm ~kind:Nvm.Fram ~region:Nvm.Monitor);
  Alcotest.(check int) "runtime fram" 2
    (Nvm.footprint nvm ~kind:Nvm.Fram ~region:Nvm.Runtime);
  Alcotest.(check int) "runtime ram" 2
    (Nvm.footprint nvm ~kind:Nvm.Ram ~region:Nvm.Runtime);
  Alcotest.(check (list string)) "names in order" [ "a"; "b" ]
    (Nvm.cell_names nvm ~region:Nvm.Monitor)

(* Random interleavings of transactional ops and power failures never leak
   uncommitted state: after every failure, reads equal the last committed
   value. *)
let atomicity_qcheck =
  let open QCheck in
  let op = Gen.oneofl [ `Tx_write; `Commit; `Failure ] in
  Test.make ~name:"tx atomicity under random failures" ~count:300
    (make Gen.(list_size (int_range 1 40) (pair op (int_bound 100))))
    (fun ops ->
      let nvm = Nvm.create () in
      let cell = Nvm.cell nvm ~region:Nvm.Application ~name:"x" ~bytes:4 0 in
      let committed = ref 0 in
      let pending = ref None in
      List.iter
        (fun (op, v) ->
          match op with
          | `Tx_write ->
              if not (Nvm.in_tx nvm) then Nvm.begin_tx nvm;
              Nvm.tx_write cell v;
              pending := Some v
          | `Commit ->
              if Nvm.in_tx nvm then begin
                Nvm.commit_tx nvm;
                (match !pending with Some v -> committed := v | None -> ());
                pending := None
              end
          | `Failure ->
              Nvm.power_failure nvm;
              pending := None)
        ops;
      if Nvm.in_tx nvm then Nvm.power_failure nvm;
      Nvm.read cell = !committed)

(* The region versions the task-atomicity oracle gates its snapshots
   on: every way a region's committed state can change moves that
   region's version and no other; buffered writes, aborts and reads
   move none. *)
let test_region_versions () =
  let nvm = Nvm.create () in
  let regions = [ Nvm.Runtime; Nvm.Monitor; Nvm.Application; Nvm.Staging ] in
  let versions () = List.map (fun region -> Nvm.region_version nvm ~region) regions in
  let moves what region f =
    let before = versions () in
    let r = f () in
    List.iter2
      (fun r0 (v0, v) ->
        if r0 = region then
          Alcotest.(check bool) (what ^ " bumps its region") true (v > v0)
        else Alcotest.(check int) (what ^ " leaves other regions") v0 v)
      regions
      (List.combine before (versions ()));
    r
  in
  let still what f =
    let before = versions () in
    f ();
    Alcotest.(check (list int)) (what ^ " bumps nothing") before (versions ())
  in
  let app =
    moves "allocating a cell" Nvm.Application (fun () ->
        Nvm.cell nvm ~region:Nvm.Application ~name:"x" ~bytes:4 0)
  in
  moves "write" Nvm.Application (fun () -> Nvm.write app 1);
  still "read" (fun () -> ignore (Nvm.read app));
  Nvm.begin_tx nvm;
  still "tx_write" (fun () -> Nvm.tx_write app 2);
  moves "commit_tx" Nvm.Application (fun () -> Nvm.commit_tx nvm);
  Nvm.begin_tx nvm;
  Nvm.tx_write app 3;
  still "abort_tx" (fun () -> Nvm.abort_tx nvm);
  let ram =
    moves "allocating a RAM cell" Nvm.Runtime (fun () ->
        Nvm.cell nvm ~region:Nvm.Runtime ~kind:Nvm.Ram ~name:"scratch" ~bytes:2 0)
  in
  Nvm.write ram 5;
  moves "power_failure resetting RAM" Nvm.Runtime (fun () ->
      Nvm.power_failure nvm);
  Nvm.begin_tx nvm;
  Nvm.tx_write app 4;
  let redo = Nvm.capture_tx nvm in
  still "drop_tx" (fun () -> Nvm.drop_tx nvm);
  moves "a redo thunk" Nvm.Application (fun () ->
      List.iter (fun (_, _, apply) -> apply ()) redo);
  Alcotest.(check int) "redo published" 4 (Nvm.read app)

let suite =
  [
    Alcotest.test_case "write-through persistence" `Quick test_write_through;
    Alcotest.test_case "transaction commit" `Quick test_tx_commit;
    Alcotest.test_case "power failure aborts tx" `Quick test_tx_abort_on_power_failure;
    Alcotest.test_case "RAM cells reset on failure" `Quick test_ram_reset;
    Alcotest.test_case "mixed disciplines rejected" `Quick
      test_mixed_write_disciplines_rejected;
    Alcotest.test_case "transaction discipline errors" `Quick
      test_tx_discipline_errors;
    Alcotest.test_case "duplicate cells rejected" `Quick
      test_duplicate_cells_rejected;
    Alcotest.test_case "footprint accounting" `Quick test_footprint_accounting;
    Alcotest.test_case "committed assignments bump region versions" `Quick
      test_region_versions;
    QCheck_alcotest.to_alcotest atomicity_qcheck;
  ]
