module B = Bigint

type kind = Eq | Ge

type t = { kind : kind; aff : Affine.t }

let eq aff = { kind = Eq; aff }
let ge aff = { kind = Ge; aff }
let ge_of a b = ge (Affine.sub a b)
let le_of a b = ge (Affine.sub b a)
let eq_of a b = eq (Affine.sub a b)
let lt_of a b = ge (Affine.add_const (Affine.sub b a) B.minus_one)
let gt_of a b = lt_of b a
let dim c = Affine.dim c.aff

(* A content of zero or one leaves the row as it is. *)
let normalize c =
  let g = Affine.content c.aff in
  if B.is_small g && B.to_small g <= 1 then c
  else
    match c.kind with
    | Eq ->
      if B.is_zero (B.frem (Affine.const_of c.aff) g) then
        { c with aff = Affine.divexact c.aff g }
      else c
    | Ge -> { c with aff = Affine.div_floor c.aff g }

(* A coefficient's hash with no call into [Bigint]: an immediate hashes as
   itself. *)
let hash_coeff (x : B.t) = if B.is_small x then B.to_small x else B.hash x

(* A row's parallel class: its kind and coefficient vector, plus its
   constant for an equality.  Every coefficient enters the hash. *)
let class_hash c =
  let coeffs = (c.aff : Affine.t).coeffs in
  let h = ref (match c.kind with Eq -> 1 + hash_coeff c.aff.const | Ge -> 0) in
  for i = 0 to Array.length coeffs - 1 do
    h := (!h * 65599) + hash_coeff coeffs.(i)
  done;
  !h land max_int

(* One representation per Bigint value makes polymorphic equality exact on
   coefficient arrays and constants. *)
let same_class c c' =
  c.kind = c'.kind
  && (c.kind = Ge || c.aff.const = c'.aff.const)
  && (c.aff : Affine.t).coeffs = (c'.aff : Affine.t).coeffs

(* An open-addressing table sized from the input: [slot] holds class
   indices (-1 when free) at a load of at most one half, and class [k] has
   hash [hashes.(k)] and current representative [reps.(k)].  Classes are
   numbered in first-seen order. *)
let dedupe cs =
  match cs with
  | [] | [ _ ] -> cs
  | first :: _ ->
    let n = List.length cs in
    let size = ref 8 in
    while !size < 2 * n do
      size := 2 * !size
    done;
    let mask = !size - 1 in
    let slot = Array.make !size (-1) in
    let hashes = Array.make n 0 and reps = Array.make n first in
    let classes = ref 0 in
    List.iter
      (fun c ->
        let h = class_hash c in
        let i = ref (h land mask) and placed = ref false in
        while not !placed do
          let k = slot.(!i) in
          if k < 0 then begin
            slot.(!i) <- !classes;
            hashes.(!classes) <- h;
            reps.(!classes) <- c;
            incr classes;
            placed := true
          end
          else if hashes.(k) = h && same_class reps.(k) c then begin
            let x = c.aff.const and y = reps.(k).aff.const in
            if
              c.kind = Ge
              &&
              if B.is_small x && B.is_small y then B.to_small x < B.to_small y
              else B.compare x y < 0
            then reps.(k) <- c;
            placed := true
          end
          else i := (!i + 1) land mask
        done)
      cs;
    List.init !classes (Array.get reps)

let is_trivially_true c =
  Affine.is_constant c.aff
  &&
  match c.kind with
  | Eq -> B.is_zero (Affine.const_of c.aff)
  | Ge -> B.sign (Affine.const_of c.aff) >= 0

let satisfied_by c env =
  let v = Affine.eval c.aff env in
  match c.kind with Eq -> B.is_zero v | Ge -> B.sign v >= 0

let extend c n = { c with aff = Affine.extend c.aff n }
let rename c perm n = { c with aff = Affine.rename c.aff perm n }
let subst c k e = { c with aff = Affine.subst c.aff k e }
let equal a b = a.kind = b.kind && Affine.equal a.aff b.aff

let negate_ge c =
  match c.kind with
  | Ge -> ge (Affine.add_const (Affine.neg c.aff) B.minus_one)
  | Eq -> invalid_arg "Constr.negate_ge: equality"

let pp names fmt c =
  Format.fprintf fmt "%a %s 0" (Affine.pp names) c.aff
    (match c.kind with Eq -> "=" | Ge -> ">=")
