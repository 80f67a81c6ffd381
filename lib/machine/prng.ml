(* The 64-bit splitmix64 state lives unboxed in an 8-byte buffer. Every
   draw reads it, advances it and mixes it inside one inlined body, so the
   intermediate [int64]s stay in registers and [int]/[bool] allocate
   nothing. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

let[@inline] draw t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 s;
  mix s

let next t = draw t

let split t = of_state (mix (Int64.logxor (draw t) 0xA5A5A5A5DEADBEEFL))

let int t n =
  if n <= 0 then invalid_arg "Prng.int";
  Int64.to_int (Int64.rem (Int64.logand (draw t) Int64.max_int) (Int64.of_int n))

(* Uniform in [0, 1): the top 53 bits of a draw. *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (draw t) 11) /. 9007199254740992.0

let float t bound = unit_float t *. bound

let bool t = Int64.logand (draw t) 1L = 1L

(* A uniform draw in (0, 1) for the inverse-transform samplers. *)
let[@inline] positive_unit t =
  let u = unit_float t in
  if u <= 0.0 then 1e-12 else u

let exponential t ~mean = -.mean *. log (positive_unit t)

let pareto t ~scale ~shape = scale /. (positive_unit t ** (1.0 /. shape))

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Prng.geometric";
  if p >= 1.0 then 0 else int_of_float (log (positive_unit t) /. log (1.0 -. p))
