(* Exact integers, one representation per value.  Every value in
   [-max_int, max_int] is an immediate OCaml [int]; every other value
   (magnitude at least 2^62, so [min_int] included) is a boxed
   sign-magnitude record over little-endian base-2^15 digits whose top
   digit is nonzero.  Because no value has two representations, structural
   equality and [Hashtbl.hash] agree with [equal] and [hash].  Operations
   on two immediates run on native ints; [add], [sub] and [mul] detect
   overflow and fall back to the digit code, and [norm] turns every digit
   result that fits back into an immediate. *)

let base = 32768
let base_bits = 15

type big = { sign : int; mag : int array }
type t

(* The coercions between the two representations; the first three are
   exported, see bigint.mli. *)
external is_small : t -> bool = "%obj_is_int"
external to_small : t -> int = "%identity"
external of_small : int -> t = "%identity"
external of_big : big -> t = "%identity"
external to_big : t -> big = "%identity"

let zero = of_small 0

(* Magnitude (unsigned) primitives. *)

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = Stdlib.max la lb + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land (base - 1);
    carry := s lsr base_bits
  done;
  r

(* Requires [a >= b] as magnitudes. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  r

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land (base - 1);
        carry := s lsr base_bits
      done;
      r.(i + lb) <- r.(i + lb) + !carry
    done;
    r
  end

(* Shift left by [s] bits, [0 <= s < base_bits]. *)
let shl_mag a s =
  if s = 0 then Array.copy a
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let v = (a.(i) lsl s) lor !carry in
      r.(i) <- v land (base - 1);
      carry := v lsr base_bits
    done;
    r.(la) <- !carry;
    r
  end

let shr_mag a s =
  if s = 0 then Array.copy a
  else begin
    let la = Array.length a in
    let r = Array.make la 0 in
    let carry = ref 0 in
    for i = la - 1 downto 0 do
      r.(i) <- (a.(i) lsr s) lor (!carry lsl (base_bits - s));
      carry := a.(i) land ((1 lsl s) - 1)
    done;
    r
  end

(* Knuth algorithm D.  Returns (quotient, remainder) of magnitudes. *)
let divmod_mag u v =
  let lv = Array.length v in
  if lv = 0 then raise Division_by_zero;
  if cmp_mag u v < 0 then ([||], Array.copy u)
  else if lv = 1 then begin
    let d = v.(0) in
    let lu = Array.length u in
    let q = Array.make lu 0 in
    let r = ref 0 in
    for i = lu - 1 downto 0 do
      let cur = (!r lsl base_bits) lor u.(i) in
      q.(i) <- cur / d;
      r := cur mod d
    done;
    (q, if !r = 0 then [||] else [| !r |])
  end
  else begin
    (* Normalize so the top digit of v is >= base/2. *)
    let s = ref 0 in
    while v.(lv - 1) lsl !s < base / 2 do
      incr s
    done;
    let vn = shr_mag (shl_mag v !s) 0 in
    let vn =
      (* shl_mag appends a digit that is zero here (top digit stays < base) *)
      if vn.(Array.length vn - 1) = 0 then Array.sub vn 0 (Array.length vn - 1)
      else vn
    in
    (* Knuth's D1 gives un one more digit than u; shl_mag only appends it
       when the shift is nonzero. *)
    let un =
      if !s = 0 then Array.append (Array.copy u) [| 0 |] else shl_mag u !s
    in
    let m = Array.length un - 1 and n = Array.length vn in
    (* un has m+1 digits; quotient has m+1-n digits. *)
    let q = Array.make (m + 1 - n) 0 in
    for j = m - n downto 0 do
      let top = (un.(j + n) lsl base_bits) lor un.(j + n - 1) in
      let qhat = ref (top / vn.(n - 1)) and rhat = ref (top mod vn.(n - 1)) in
      let continue = ref true in
      while
        !continue
        && (!qhat >= base
           || !qhat * vn.(n - 2) > (!rhat lsl base_bits) lor un.(j + n - 2))
      do
        decr qhat;
        rhat := !rhat + vn.(n - 1);
        if !rhat >= base then continue := false
      done;
      (* Multiply and subtract. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * vn.(i)) + !carry in
        carry := p lsr base_bits;
        let d = un.(i + j) - (p land (base - 1)) - !borrow in
        if d < 0 then begin
          un.(i + j) <- d + base;
          borrow := 1
        end
        else begin
          un.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = un.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add v back. *)
        un.(j + n) <- d + base;
        decr qhat;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let s = un.(i + j) + vn.(i) + !carry in
          un.(i + j) <- s land (base - 1);
          carry := s lsr base_bits
        done;
        un.(j + n) <- (un.(j + n) + !carry) land (base - 1)
      end
      else un.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = shr_mag (Array.sub un 0 n) !s in
    (q, r)
  end

(* Signed layer.  The [*_slow] functions take any operands through their
   sign-magnitude [view] and return [norm]alized results. *)

let int_sign n = if n > 0 then 1 else if n < 0 then -1 else 0

(* Digits of [m >= 0]. *)
let mag_of_nonneg m =
  let rec len m = if m = 0 then 0 else 1 + len (m lsr base_bits) in
  Array.init (len m) (fun i -> (m lsr (i * base_bits)) land (base - 1))

(* [min_int], the one boxed value that fits a native int: magnitude
   2^62, digit 4 at position 4. *)
let min_int_big = { sign = -1; mag = [| 0; 0; 0; 0; 4 |] }

let view x =
  if is_small x then
    let n = to_small x in
    { sign = int_sign n; mag = mag_of_nonneg (Stdlib.abs n) }
  else to_big x

(* Trims leading zero digits; magnitudes below 2^62 (at most four digits,
   or five with a top digit below 4) become immediates. *)
let norm sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  let n = !n in
  if n < 5 || (n = 5 && mag.(4) < 4) then begin
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl base_bits) lor mag.(i)
    done;
    of_small (if sign < 0 then - !v else !v)
  end
  else if n = Array.length mag then of_big { sign; mag }
  else of_big { sign; mag = Array.sub mag 0 n }

let of_int n = if n = min_int then of_big min_int_big else of_small n
let one = of_small 1
let minus_one = of_small (-1)
let two = of_small 2
let sign x = if is_small x then int_sign (to_small x) else (to_big x).sign
let is_zero x = x == zero

(* A boxed value's magnitude exceeds every immediate's, so it stays boxed
   under negation. *)
let neg x =
  if is_small x then of_small (-to_small x)
  else
    let b = to_big x in
    of_big { b with sign = -b.sign }

let abs x = if sign x < 0 then neg x else x

let compare x y =
  match (is_small x, is_small y) with
  | true, true -> Int.compare (to_small x) (to_small y)
  | true, false -> -(to_big y).sign
  | false, true -> (to_big x).sign
  | false, false ->
    let a = to_big x and b = to_big y in
    if a.sign <> b.sign then Int.compare a.sign b.sign
    else if a.sign > 0 then cmp_mag a.mag b.mag
    else cmp_mag b.mag a.mag

let equal x y =
  x == y || ((not (is_small x)) && (not (is_small y)) && compare x y = 0)

let hash x =
  if is_small x then to_small x land max_int
  else
    let b = to_big x in
    Array.fold_left (fun h d -> (h * 65599) + d) (b.sign + 1) b.mag land max_int

let add_slow x y =
  let a = view x and b = view y in
  if a.sign = b.sign then norm a.sign (add_mag a.mag b.mag)
  else if cmp_mag a.mag b.mag >= 0 then norm a.sign (sub_mag a.mag b.mag)
  else norm b.sign (sub_mag b.mag a.mag)

(* On immediates, [a + b] overflowed exactly when its sign differs from
   both operands', and [a - b] when [a] and [b] differ in sign and the
   result's sign differs from [a]'s.  [min_int] itself is boxed. *)
let add x y =
  if is_small x && is_small y then
    let a = to_small x and b = to_small y in
    let s = a + b in
    if (a lxor s) land (b lxor s) >= 0 && s <> min_int then of_small s
    else add_slow x y
  else add_slow x y

let sub x y =
  if is_small x && is_small y then
    let a = to_small x and b = to_small y in
    let d = a - b in
    if (a lxor b) land (a lxor d) >= 0 && d <> min_int then of_small d
    else add_slow x (neg y)
  else add_slow x (neg y)

let mul_slow x y =
  let a = view x and b = view y in
  norm (a.sign * b.sign) (mul_mag a.mag b.mag)

(* Factors below 2^31 in magnitude cannot overflow; otherwise the product
   is checked by dividing it back. *)
let mul x y =
  if is_small x && is_small y then
    let a = to_small x and b = to_small y in
    let p = a * b in
    if Stdlib.abs a < 0x8000_0000 && Stdlib.abs b < 0x8000_0000 then of_small p
    else if a = 0 || (p / a = b && p <> min_int) then of_small p
    else mul_slow x y
  else mul_slow x y

let mul_int a n = mul a (of_int n)
let succ a = add a one
let pred a = sub a one

let div_rem x y =
  if is_small x && is_small y then
    let a = to_small x and b = to_small y in
    let q = a / b in
    (of_small q, of_small (a - (q * b)))
  else
    let a = view x and b = view y in
    if b.sign = 0 then raise Division_by_zero;
    let q, r = divmod_mag a.mag b.mag in
    (norm (a.sign * b.sign) q, norm a.sign r)

(* On immediates a quotient of magnitude [max_int] is exact, so the
   rounding steps below never leave the immediate range. *)
let fdiv x y =
  if is_small x && is_small y then
    let a = to_small x and b = to_small y in
    let q = a / b in
    let r = a - (q * b) in
    of_small (if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q)
  else
    let q, r = div_rem x y in
    if sign r <> 0 && sign r <> sign y then sub q one else q

let cdiv x y =
  if is_small x && is_small y then
    let a = to_small x and b = to_small y in
    let q = a / b in
    let r = a - (q * b) in
    of_small (if r <> 0 && (r < 0) = (b < 0) then q + 1 else q)
  else
    let q, r = div_rem x y in
    if sign r <> 0 && sign r = sign y then add q one else q

let frem x y =
  if is_small x && is_small y then
    let a = to_small x and b = to_small y in
    let r = a mod b in
    of_small (if r <> 0 && (r < 0) <> (b < 0) then r + b else r)
  else sub x (mul y (fdiv x y))

let divexact a b =
  let q, r = div_rem a b in
  if not (is_zero r) then failwith "Bigint.divexact: inexact division";
  q

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* A boxed operand leaves the digit path after one remainder step. *)
let rec gcd x y =
  if is_small x && is_small y then
    of_small (gcd_int (Stdlib.abs (to_small x)) (Stdlib.abs (to_small y)))
  else if is_zero y then abs x
  else gcd y (snd (div_rem x y))

let lcm a b =
  if is_zero a || is_zero b then zero
  else abs (mul (divexact a (gcd a b)) b)

let max a b = if compare a b >= 0 then a else b

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc x n =
    if n = 0 then acc
    else if n land 1 = 1 then go (mul acc x) (mul x x) (n lsr 1)
    else go acc (mul x x) (n lsr 1)
  in
  go one x n

let to_int_opt x =
  if is_small x then Some (to_small x)
  else if equal x (of_big min_int_big) then Some min_int
  else None

let to_int_exn x =
  match to_int_opt x with
  | Some n -> n
  | None -> failwith "Bigint.to_int_exn: does not fit in native int"

let billion = of_small 1_000_000_000

(* A boxed value has a nonzero quotient by 10^9, whose rendering carries
   the sign. *)
let rec to_string x =
  if is_small x then string_of_int (to_small x)
  else
    let q, r = div_rem x billion in
    to_string q ^ Printf.sprintf "%09d" (Stdlib.abs (to_small r))

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_string: empty string";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start >= n then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let ten = of_small 10 in
  for i = start to n - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit";
    acc := add (mul !acc ten) (of_small (Char.code c - Char.code '0'))
  done;
  if negative then neg !acc else !acc

let pp fmt x = Format.pp_print_string fmt (to_string x)
let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( ~- ) = neg
let ( = ) = equal
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
