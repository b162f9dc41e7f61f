module B = Bigint

type t = { coeffs : B.t array; const : B.t }

let dim a = Array.length a.coeffs
let make coeffs const = { coeffs = Array.copy coeffs; const }
let zero n = { coeffs = Array.make n B.zero; const = B.zero }
let const n c = { coeffs = Array.make n B.zero; const = c }
let of_int n c = const n (B.of_int c)

let var n i =
  if i < 0 || i >= n then invalid_arg "Affine.var: index out of range";
  let coeffs = Array.make n B.zero in
  coeffs.(i) <- B.one;
  { coeffs; const = B.zero }

let of_ints coeffs c =
  { coeffs = Array.of_list (List.map B.of_int coeffs); const = B.of_int c }

(* zero is an immediate *)
let[@inline] is_zero x = x == B.of_small 0
let coeff a i = a.coeffs.(i)
let const_of a = a.const
let is_constant a = Array.for_all is_zero a.coeffs

let check_dim a b =
  if dim a <> dim b then invalid_arg "Affine: dimension mismatch"

(* Per-coefficient arithmetic, inline on immediates.  [Bigint] is called
   only for a boxed operand or when the native result overflows, detected
   exactly as [Bigint.add] and [Bigint.mul] detect it, so each result is
   the value [Bigint] returns.  The [B.is_small]/[B.to_small]/[B.of_small]
   externals inline even where nothing else crosses a module boundary. *)
let[@inline] add_c x y =
  if B.is_small x && B.is_small y then
    let a = B.to_small x and b = B.to_small y in
    let s = a + b in
    if (a lxor s) land (b lxor s) >= 0 && s <> min_int then B.of_small s
    else B.add x y
  else B.add x y

let[@inline] sub_c x y =
  if B.is_small x && B.is_small y then
    let a = B.to_small x and b = B.to_small y in
    let d = a - b in
    if (a lxor b) land (a lxor d) >= 0 && d <> min_int then B.of_small d
    else B.sub x y
  else B.sub x y

let[@inline] mul_c x y =
  if B.is_small x && B.is_small y then
    let a = B.to_small x and b = B.to_small y in
    let p = a * b in
    if
      (abs a < 0x8000_0000 && abs b < 0x8000_0000)
      || a = 0
      || (p / a = b && p <> min_int)
    then B.of_small p
    else B.mul x y
  else B.mul x y

(* an immediate's negation is an immediate *)
let[@inline] neg_c x =
  if B.is_small x then B.of_small (-B.to_small x) else B.neg x

let add a b =
  check_dim a b;
  let coeffs = Array.make (dim a) B.zero in
  for i = 0 to dim a - 1 do
    coeffs.(i) <- add_c a.coeffs.(i) b.coeffs.(i)
  done;
  { coeffs; const = add_c a.const b.const }

let sub a b =
  check_dim a b;
  let coeffs = Array.make (dim a) B.zero in
  for i = 0 to dim a - 1 do
    coeffs.(i) <- sub_c a.coeffs.(i) b.coeffs.(i)
  done;
  { coeffs; const = sub_c a.const b.const }

let neg a =
  let coeffs = Array.make (dim a) B.zero in
  for i = 0 to dim a - 1 do
    coeffs.(i) <- neg_c a.coeffs.(i)
  done;
  { coeffs; const = neg_c a.const }

let scale k a =
  let coeffs = Array.make (dim a) B.zero in
  for i = 0 to dim a - 1 do
    coeffs.(i) <- mul_c k a.coeffs.(i)
  done;
  { coeffs; const = mul_c k a.const }

let scale_int k a = scale (B.of_int k) a
let add_const a c = { a with const = add_c a.const c }

let combine b u a l =
  check_dim u l;
  let coeffs = Array.make (dim u) B.zero in
  for i = 0 to dim u - 1 do
    coeffs.(i) <- sub_c (mul_c b u.coeffs.(i)) (mul_c a l.coeffs.(i))
  done;
  { coeffs; const = sub_c (mul_c b u.const) (mul_c a l.const) }

let set_coeff a i v =
  let coeffs = Array.copy a.coeffs in
  coeffs.(i) <- v;
  { a with coeffs }

let eval a env =
  if Array.length env <> dim a then invalid_arg "Affine.eval: dimension";
  let acc = ref a.const in
  for i = 0 to dim a - 1 do
    if not (B.is_zero a.coeffs.(i)) then
      acc := B.add !acc (B.mul a.coeffs.(i) env.(i))
  done;
  !acc

let eval_int a env = eval a (Array.map B.of_int env)

let subst a k e =
  check_dim a e;
  if not (is_zero e.coeffs.(k)) then
    invalid_arg "Affine.subst: replacement mentions the variable";
  let ak = a.coeffs.(k) in
  if is_zero ak then a
  else begin
    let coeffs = Array.make (dim a) B.zero in
    for i = 0 to dim a - 1 do
      if i <> k then coeffs.(i) <- add_c a.coeffs.(i) (mul_c ak e.coeffs.(i))
    done;
    { coeffs; const = add_c a.const (mul_c ak e.const) }
  end

let extend a n =
  if n < dim a then invalid_arg "Affine.extend: shrinking";
  let coeffs = Array.make n B.zero in
  Array.blit a.coeffs 0 coeffs 0 (dim a);
  { coeffs; const = a.const }

let rename a perm n =
  if Array.length perm <> dim a then invalid_arg "Affine.rename: perm size";
  let coeffs = Array.make n B.zero in
  Array.iteri
    (fun i c ->
      if not (B.is_zero c) then begin
        let j = perm.(i) in
        if j < 0 || j >= n then invalid_arg "Affine.rename: target out of range";
        coeffs.(j) <- B.add coeffs.(j) c
      end)
    a.coeffs;
  { coeffs; const = a.const }

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* The gcd stays native until a boxed coefficient, if any, hands it to
   [Bigint.gcd]. *)
let content a =
  let n = dim a in
  let rec native g i =
    if i = n then B.of_small g
    else
      let x = a.coeffs.(i) in
      if B.is_small x then native (gcd_int g (abs (B.to_small x))) (i + 1)
      else boxed (B.gcd (B.of_small g) x) (i + 1)
  and boxed g i = if i = n then g else boxed (B.gcd g a.coeffs.(i)) (i + 1) in
  native 0 0

(* Immediate quotients skip [Bigint.div_rem]'s tuple; an inexact one still
   fails in [Bigint.divexact]. *)
let[@inline] divexact_c x k =
  if B.is_small x && B.is_small k then
    let q = B.to_small x / B.to_small k in
    if q * B.to_small k = B.to_small x then B.of_small q else B.divexact x k
  else B.divexact x k

let div_coeffs a k =
  let coeffs = Array.make (dim a) B.zero in
  for i = 0 to dim a - 1 do
    let c = a.coeffs.(i) in
    if not (is_zero c) then coeffs.(i) <- divexact_c c k
  done;
  coeffs

let divexact a k = { coeffs = div_coeffs a k; const = divexact_c a.const k }

let div_floor a k =
  let const =
    if B.is_small a.const && B.is_small k then
      let c = B.to_small a.const and d = B.to_small k in
      let q = c / d in
      let r = c - (q * d) in
      B.of_small (if r <> 0 && (r < 0) <> (d < 0) then q - 1 else q)
    else B.fdiv a.const k
  in
  { coeffs = div_coeffs a k; const }

let equal a b =
  dim a = dim b && B.equal a.const b.const
  && Array.for_all2 B.equal a.coeffs b.coeffs

let vars a =
  let acc = ref [] in
  for i = dim a - 1 downto 0 do
    if not (is_zero a.coeffs.(i)) then acc := i :: !acc
  done;
  !acc

let pp names fmt a =
  let first = ref true in
  let term fmt c name =
    let c_abs = B.abs c in
    if !first then begin
      first := false;
      if B.sign c < 0 then Format.pp_print_string fmt "-"
    end
    else if B.sign c < 0 then Format.pp_print_string fmt " - "
    else Format.pp_print_string fmt " + ";
    match name with
    | None -> Format.pp_print_string fmt (B.to_string c_abs)
    | Some n ->
      if B.equal c_abs B.one then Format.pp_print_string fmt n
      else Format.fprintf fmt "%s*%s" (B.to_string c_abs) n
  in
  Array.iteri
    (fun i c ->
      if not (B.is_zero c) then
        term fmt c
          (Some (if i < Array.length names then names.(i)
                 else "x" ^ string_of_int i)))
    a.coeffs;
  if not (B.is_zero a.const) || !first then term fmt a.const None
