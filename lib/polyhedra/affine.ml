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

let coeff a i = a.coeffs.(i)
let const_of a = a.const
let is_constant a = Array.for_all B.is_zero a.coeffs

let check_dim a b =
  if dim a <> dim b then invalid_arg "Affine: dimension mismatch"

let add a b =
  check_dim a b;
  { coeffs = Array.map2 B.add a.coeffs b.coeffs; const = B.add a.const b.const }

let neg a = { coeffs = Array.map B.neg a.coeffs; const = B.neg a.const }
let sub a b = add a (neg b)

let scale k a =
  { coeffs = Array.map (B.mul k) a.coeffs; const = B.mul k a.const }

let scale_int k a = scale (B.of_int k) a
let add_const a c = { a with const = B.add a.const c }

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
  if not (B.is_zero e.coeffs.(k)) then
    invalid_arg "Affine.subst: replacement mentions the variable";
  let ak = a.coeffs.(k) in
  if B.is_zero ak then a
  else begin
    let scaled = scale ak e in
    let a' = set_coeff a k B.zero in
    add a' scaled
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

let content a = Array.fold_left B.gcd B.zero a.coeffs

let div_coeffs a k =
  Array.map (fun c -> if B.is_zero c then c else B.divexact c k) a.coeffs

let divexact a k = { coeffs = div_coeffs a k; const = B.divexact a.const k }
let div_floor a k = { coeffs = div_coeffs a k; const = B.fdiv a.const k }

let equal a b =
  dim a = dim b && B.equal a.const b.const
  && Array.for_all2 B.equal a.coeffs b.coeffs

let vars a =
  let acc = ref [] in
  for i = dim a - 1 downto 0 do
    if not (B.is_zero a.coeffs.(i)) then acc := i :: !acc
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
