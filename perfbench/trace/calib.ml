(* Host-speed calibration kernel for perfbench.

   A fixed amount of work in the same mix the simulator spends its time
   on - short-lived allocation, hash-table traffic, string building and
   MD5 digests - run on two domains at once, as the workloads run at
   --jobs 2.  It uses the standard library only, so no change to the
   program can change its cost: its time measures how fast the host is
   right now.  Two domains matter: under contention from other tenants a
   --jobs 2 OCaml program slows far more than a one-domain one, since
   every minor collection waits for both domains.  Prints the wall
   seconds of one pass.

   Usage: calib.exe *)

let work seed =
  let tbl = Hashtbl.create 64 in
  let acc = ref (string_of_int seed) in
  for i = 1 to 120_000 do
    let key = Printf.sprintf "cell-%d" (i land 1023) in
    let cells = List.init 8 (fun j -> (i * 31) + j) in
    Hashtbl.replace tbl key cells;
    (match Hashtbl.find_opt tbl (Printf.sprintf "cell-%d" ((i * 7) land 1023)) with
    | Some l -> acc := !acc ^ string_of_int (List.length l)
    | None -> ());
    if i land 63 = 0 then acc := Digest.to_hex (Digest.string !acc)
  done;
  !acc

let () =
  let t0 = Unix.gettimeofday () in
  let other = Domain.spawn (fun () -> work 1) in
  let mine = work 0 in
  let theirs = Domain.join other in
  let wall = Unix.gettimeofday () -. t0 in
  ignore (Sys.opaque_identity (mine, theirs));
  Printf.printf "%.9f\n" wall
