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

let normalize c =
  let g = Affine.content c.aff in
  if B.is_zero g then c
  else begin
    match c.kind with
    | Eq ->
      if B.is_zero (B.frem (Affine.const_of c.aff) g) then
        { c with aff = Affine.divexact c.aff g }
      else c
    | Ge -> if B.equal g B.one then c else { c with aff = Affine.div_floor c.aff g }
  end

(* Parallel classes, hashed on the coefficient vector itself: one
   representation per Bigint value makes element-wise [B.equal] and
   [B.hash] exact.  Equalities belong to one class only when their
   constants match as well. *)
module Class = Hashtbl.Make (struct
  type t = kind * B.t array * B.t

  let equal (k, a, c) (k', a', c') =
    k = k' && B.equal c c'
    && Array.length a = Array.length a'
    && Array.for_all2 B.equal a a'

  let hash (k, a, c) =
    Array.fold_left
      (fun h x -> (h * 65599) + B.hash x)
      (B.hash c + if k = Eq then 1 else 0)
      a
    land max_int
end)

let dedupe cs =
  let table = Class.create 16 in
  let order = ref [] in
  List.iter
    (fun c ->
      let const = Affine.const_of c.aff in
      let key =
        (c.kind, (c.aff : Affine.t).coeffs,
         match c.kind with Eq -> const | Ge -> B.zero)
      in
      match Class.find_opt table key with
      | None ->
        let slot = ref c in
        Class.add table key slot;
        order := slot :: !order
      | Some slot ->
        if B.compare const (Affine.const_of !slot.aff) < 0 then slot := c)
    cs;
  List.rev_map ( ! ) !order

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
