type t = int

let zero = 0
let of_us us = us
let of_ms ms = ms * 1_000
let of_sec s = s * 1_000_000
let of_min m = m * 60_000_000
let of_sec_f s = int_of_float (Float.round (s *. 1e6))
let to_us t = t
let to_ms_f t = float_of_int t /. 1e3
let to_sec_f t = float_of_int t /. 1e6
let to_min_f t = float_of_int t /. 60e6
let add = ( + )
let sub = ( - )
let scale t k = t * k
let divide t k = t / k
let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let min = Stdlib.min
let max = Stdlib.max
let is_negative t = Stdlib.( < ) t 0

(* [%.2f] of the double [float v /. scale], with integer arithmetic:
   [v] is a whole number of microseconds and [scale] a multiple of 100,
   so in hundredths the exact quotient is [q + r / step].  Rounding it
   is decided by the remainder [r], except at an exact half-way case
   ([2r = step]), where Printf rounds the double quotient instead: up if
   the double lies above the half-way point, down if below, and
   half-to-even if it equals it.  [Float.fma] gives the sign of
   [double - exact] without a second rounding.  Anywhere else the exact
   quotient is at least [1 / scale] from a half-way point, and the
   double is nearer than that to it while [|v| < 2^52]. *)
let add_hundredths buf v ~scale ~unit =
  let a = Stdlib.abs v and step = scale / 100 in
  let q = a / step and r = a mod step in
  let q =
    if 2 * r < step then q
    else if 2 * r > step then q + 1
    else
      let d = float_of_int a /. float_of_int scale in
      let c = Float.compare (Float.fma d (float_of_int scale) (-.float_of_int a)) 0. in
      if c > 0 then q + 1 else if c < 0 then q else q + (q land 1)
  in
  if Stdlib.( < ) v 0 then Buffer.add_char buf '-';
  Digits.add buf (q / 100);
  Buffer.add_char buf '.';
  let f = q mod 100 in
  Buffer.add_char buf (Char.chr (48 + (f / 10)));
  Buffer.add_char buf (Char.chr (48 + (f mod 10)));
  Buffer.add_string buf unit

(* Beyond this (about 142 years) minutes keep Printf. *)
let exact_min_limit = 1 lsl 52

let add_to_buffer buf t =
  let abs = Stdlib.abs t in
  if Stdlib.( < ) abs 1_000 then begin
    Digits.add buf t;
    Buffer.add_string buf "us"
  end
  else if Stdlib.( < ) abs 1_000_000 then
    add_hundredths buf t ~scale:1_000 ~unit:"ms"
  else if Stdlib.( < ) abs 60_000_000 then
    add_hundredths buf t ~scale:1_000_000 ~unit:"s"
  else if Stdlib.( < ) abs exact_min_limit then
    add_hundredths buf t ~scale:60_000_000 ~unit:"min"
  else Printf.bprintf buf "%.2fmin" (to_min_f t)

let to_string t =
  let buf = Buffer.create 16 in
  add_to_buffer buf t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)

let to_literal t =
  if t mod 60_000_000 = 0 && t <> 0 then
    Printf.sprintf "%dmin" (t / 60_000_000)
  else if t mod 1_000_000 = 0 && t <> 0 then Printf.sprintf "%ds" (t / 1_000_000)
  else if t mod 1_000 = 0 && t <> 0 then Printf.sprintf "%dms" (t / 1_000)
  else Printf.sprintf "%dus" t
