open Artemis

let check = Alcotest.(check int)

let test_constructors () =
  check "ms" 1_000 (Time.to_us (Time.of_ms 1));
  check "sec" 1_000_000 (Time.to_us (Time.of_sec 1));
  check "min" 60_000_000 (Time.to_us (Time.of_min 1));
  check "sec_f rounds" 1_500_000 (Time.to_us (Time.of_sec_f 1.5));
  check "sec_f rounds to nearest us" 1 (Time.to_us (Time.of_sec_f 1.4e-6))

let test_arithmetic () =
  let a = Time.of_ms 5 and b = Time.of_ms 3 in
  Alcotest.check Helpers.time "add" (Time.of_ms 8) (Time.add a b);
  Alcotest.check Helpers.time "sub" (Time.of_ms 2) (Time.sub a b);
  Alcotest.check Helpers.time "scale" (Time.of_ms 15) (Time.scale a 3);
  Alcotest.check Helpers.time "divide" (Time.of_us 2_500) (Time.divide a 2);
  Alcotest.(check bool) "negative" true (Time.is_negative (Time.sub b a))

let test_comparisons () =
  let a = Time.of_ms 1 and b = Time.of_ms 2 in
  Alcotest.(check bool) "lt" true Time.(a < b);
  Alcotest.(check bool) "le refl" true Time.(a <= a);
  Alcotest.(check bool) "gt" true Time.(b > a);
  Alcotest.check Helpers.time "min" a (Time.min a b);
  Alcotest.check Helpers.time "max" b (Time.max a b)

let test_literal () =
  Alcotest.(check string) "min unit" "5min" (Time.to_literal (Time.of_min 5));
  Alcotest.(check string) "s unit" "90s" (Time.to_literal (Time.of_sec 90));
  Alcotest.(check string) "ms unit" "100ms" (Time.to_literal (Time.of_ms 100));
  Alcotest.(check string) "us unit" "1500us" (Time.to_literal (Time.of_us 1_500));
  Alcotest.(check string) "zero" "0us" (Time.to_literal Time.zero)

let test_pp_units () =
  let render t = Format.asprintf "%a" Time.pp t in
  Alcotest.(check string) "us" "42us" (render (Time.of_us 42));
  Alcotest.(check string) "ms" "1.50ms" (render (Time.of_us 1_500));
  Alcotest.(check string) "s" "2.50s" (render (Time.of_ms 2_500));
  Alcotest.(check string) "min" "2.00min" (render (Time.of_min 2))

let literal_roundtrip =
  QCheck.Test.make ~name:"to_literal scans back to the same value"
    ~count:500
    QCheck.(map Time.of_us (int_bound 10_000_000_000))
    (fun t ->
      match
        Artemis_util.Scanner.tokenize ~puncts:[] (Time.to_literal t)
      with
      | [ { token = Artemis_util.Scanner.Duration d; _ }; _ ] -> Time.equal d t
      | _ -> false)

(* --- the integer renderer against the Printf formatter it replaced --- *)

(* The former [Time.pp]: [%.2f] of the float quotient in the unit. *)
let printf_reference t =
  let a = abs (Time.to_us t) in
  if a < 1_000 then Printf.sprintf "%dus" (Time.to_us t)
  else if a < 1_000_000 then Printf.sprintf "%.2fms" (Time.to_ms_f t)
  else if a < 60_000_000 then Printf.sprintf "%.2fs" (Time.to_sec_f t)
  else Printf.sprintf "%.2fmin" (Time.to_min_f t)

let agree_on what us =
  List.iter
    (fun us ->
      let t = Time.of_us us in
      let got = Time.to_string t and want = printf_reference t in
      if not (String.equal got want) then
        Alcotest.failf "%s: %dus renders %S, Printf says %S" what us got want)
    us

(* Four million Printf calls dominate this test, so the range is cut
   into slices checked on two domains, each with its own buffer. *)
let test_render_every_us_near_zero () =
  let lo = -2_000_000 and hi = 2_000_000 and slices = 40 in
  let width = (hi - lo + slices) / slices in
  let first_mismatch slice =
    let buf = Buffer.create 16 in
    let rec go us last =
      if us > last then None
      else begin
        let t = Time.of_us us in
        Buffer.clear buf;
        Time.add_to_buffer buf t;
        let want = printf_reference t in
        if String.equal (Buffer.contents buf) want then go (us + 1) last
        else Some (us, Buffer.contents buf, want)
      end
    in
    let first = lo + (slice * width) in
    go first (min hi (first + width - 1))
  in
  Array.iter
    (function
      | None -> ()
      | Some (us, got, want) ->
          Alcotest.failf "%dus renders %S, Printf says %S" us got want)
    (Artemis_util.Par.map ~jobs:2 slices first_mismatch)

(* Exact decimal half-way cases are where the double quotient, not the
   decimal, decides the rounding: every one across +-60 s, and every
   one across +-10 h in minutes (t mod 600 000 = 300 000). *)
let test_render_half_way_cases () =
  let range ~lo ~hi ~step = List.init ((hi - lo) / step) (fun i -> lo + (i * step)) in
  let both l = l @ List.map (fun us -> -us) l in
  agree_on "ms half-way"
    (both (range ~lo:1_005 ~hi:1_000_000 ~step:10));
  agree_on "s half-way"
    (both (range ~lo:1_005_000 ~hi:60_000_000 ~step:10_000));
  agree_on "min half-way"
    (both (range ~lo:60_300_000 ~hi:36_000_000_000 ~step:600_000))

(* Minutes are not a power of ten: every us across the first two
   seconds of the unit, and the neighbours of half-way cases far out,
   where the double quotient is least precise. *)
let test_render_minutes () =
  agree_on "first 2 s of minutes"
    (List.init 2_000_001 (fun i -> 60_000_000 + i));
  let far = (1 lsl 52) - 1 in
  let half_way_near x = x - (x mod 600_000) - 300_000 in
  agree_on "far half-way neighbours"
    (List.concat_map
       (fun x ->
         let h = half_way_near x in
         [ h - 1; h; h + 1; -h ])
       [ far; far / 3; far / 1_000; 1 lsl 40; 1 lsl 33 ]);
  List.iter
    (fun (us, want) ->
      Alcotest.(check string) (string_of_int us) want
        (Time.to_string (Time.of_us us)))
    [
      (67_500_000, "1.12min") (* 1.125 is exact in binary: half to even *);
      (82_500_000, "1.38min") (* 1.375, likewise *);
      (60_300_000, "1.00min") (* 1.005 is stored below the half-way point *);
      (90_000_000, "1.50min");
    ]

let test_render_unit_edges () =
  let edges =
    [ 999; 1_000; 999_995; 59_999_995; 60_000_000; (1 lsl 52) - 1; 1 lsl 52 ]
  in
  agree_on "unit edges" (edges @ List.map (fun us -> -us) edges);
  List.iter
    (fun (us, want) ->
      Alcotest.(check string) (string_of_int us) want
        (Time.to_string (Time.of_us us)))
    [
      (999, "999us"); (-999, "-999us"); (1_000, "1.00ms");
      (1_015, "1.01ms") (* double below the half-way point *);
      (1_125, "1.12ms") (* exact tie: half to even *);
      (1_135, "1.14ms") (* double above the half-way point *);
      (999_995, "1000.00ms"); (1_000_000, "1.00s");
      (59_999_995, "60.00s"); (-59_999_995, "-60.00s");
      (60_000_000, "1.00min");
    ]

let render_matches_printf =
  QCheck.Test.make ~name:"renderer equals the Printf formatter" ~count:2_000
    QCheck.(map Time.of_us (int_range (-10_000_000_000) 10_000_000_000))
    (fun t -> String.equal (Time.to_string t) (printf_reference t))

let render_matches_printf_wide =
  QCheck.Test.make ~name:"renderer equals Printf up to and past 2^52 us"
    ~count:2_000
    QCheck.(map Time.of_us (int_range (-(1 lsl 53)) (1 lsl 53)))
    (fun t -> String.equal (Time.to_string t) (printf_reference t))

let digits_match_string_of_int =
  QCheck.Test.make ~name:"Digits.add writes string_of_int" ~count:2_000
    QCheck.(oneof [ int; small_signed_int; oneofl [ 0; 9; 10; -10; max_int; min_int ] ])
    (fun n ->
      let buf = Buffer.create 4 in
      Buffer.add_char buf '<';
      Artemis_util.Digits.add buf n;
      String.equal (Buffer.contents buf) ("<" ^ string_of_int n))

let suite =
  [
    Alcotest.test_case "constructors" `Quick test_constructors;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "exact literals" `Quick test_literal;
    Alcotest.test_case "pp adaptive units" `Quick test_pp_units;
    QCheck_alcotest.to_alcotest literal_roundtrip;
    Alcotest.test_case "renderer = Printf at every us in +-2s" `Quick
      test_render_every_us_near_zero;
    Alcotest.test_case "renderer = Printf at every half-way case" `Quick
      test_render_half_way_cases;
    Alcotest.test_case "renderer at the unit edges" `Quick
      test_render_unit_edges;
    Alcotest.test_case "renderer = Printf in minutes" `Quick
      test_render_minutes;
    QCheck_alcotest.to_alcotest render_matches_printf;
    QCheck_alcotest.to_alcotest render_matches_printf_wide;
    QCheck_alcotest.to_alcotest digits_match_string_of_int;
  ]
