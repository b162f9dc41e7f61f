(* Splitmix64 (Steele, Lea, Flood 2014): a 64-bit state advanced by a Weyl
   increment and finalized with two xor-shift-multiplies.  Fast, passes
   BigCrush, and — unlike [Random] — identical on every platform and OCaml
   version, which is what makes "reproduce with --seed K" a real promise. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.mul (Int64.of_int seed) 0x2545F4914F6CDD1DL }

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = { state = Int64.logxor (next t) 0xD1B54A32D192ED03L }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* The modulo bias over 2^63 is far below anything a fuzzer can notice. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let range t lo hi =
  if hi < lo then invalid_arg "Rng.range: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.equal (Int64.logand (next t) 1L) 1L

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))
