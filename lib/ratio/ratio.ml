module B = Bigint

(* Invariant: den > 0 and gcd (|num|) den = 1. *)
type t = { num : B.t; den : B.t }

let make num den =
  if B.is_zero den then raise Division_by_zero;
  let num, den = if B.sign den < 0 then (B.neg num, B.neg den) else (num, den) in
  if B.is_zero num then { num = B.zero; den = B.one }
  else begin
    let g = B.gcd num den in
    { num = B.divexact num g; den = B.divexact den g }
  end

let of_bigint n = { num = n; den = B.one }
let of_int n = of_bigint (B.of_int n)
let of_ints n d = make (B.of_int n) (B.of_int d)
let zero = of_int 0
let one = of_int 1
let num x = x.num
let den x = x.den
let sign x = B.sign x.num
let is_zero x = B.is_zero x.num
let is_integer x = B.equal x.den B.one
let neg x = { x with num = B.neg x.num }

let inv x =
  if is_zero x then raise Division_by_zero;
  if B.sign x.num > 0 then { num = x.den; den = x.num }
  else { num = B.neg x.den; den = B.neg x.num }

let add a b = make (B.add (B.mul a.num b.den) (B.mul b.num a.den)) (B.mul a.den b.den)
let sub a b = add a (neg b)
let mul a b = make (B.mul a.num b.num) (B.mul a.den b.den)
let div a b = mul a (inv b)
let compare a b = B.compare (B.mul a.num b.den) (B.mul b.num a.den)
let equal a b = B.equal a.num b.num && B.equal a.den b.den
let min a b = if compare a b <= 0 then a else b
let floor x = B.fdiv x.num x.den
let ceil x = B.cdiv x.num x.den

let to_float x =
  (* Good enough for diagnostics: convert through strings only when the
     components fit a float exactly is not guaranteed, but polyhedral
     rationals stay tiny compared to 2^53. *)
  float_of_string (B.to_string x.num) /. float_of_string (B.to_string x.den)

let of_float f =
  if not (Float.is_finite f) then
    invalid_arg "Ratio.of_float: not a finite float";
  if f = 0.0 then zero
  else begin
    (* every finite float is a dyadic rational: f = m * 2^e with
       m * 2^53 integral, so the conversion is exact *)
    let m, e = Float.frexp f in
    let num = B.of_int (int_of_float (Float.ldexp m 53)) in
    let e = Stdlib.( - ) e 53 in
    if Stdlib.( >= ) e 0 then of_bigint (B.mul num (B.pow B.two e))
    else make num (B.pow B.two (Stdlib.( ~- ) e))
  end

let to_string x =
  if is_integer x then B.to_string x.num
  else B.to_string x.num ^ "/" ^ B.to_string x.den

let pp fmt x = Format.pp_print_string fmt (to_string x)
let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( ~- ) = neg
let ( = ) = equal
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
