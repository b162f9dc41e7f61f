(** Linear constraints: an affine form compared to zero. *)

type kind =
  | Eq  (** form = 0 *)
  | Ge  (** form >= 0 *)

type t = { kind : kind; aff : Affine.t }

val eq : Affine.t -> t
val ge : Affine.t -> t

val ge_of : Affine.t -> Affine.t -> t
(** [ge_of a b] is the constraint [a >= b]. *)

val le_of : Affine.t -> Affine.t -> t
val eq_of : Affine.t -> Affine.t -> t
val lt_of : Affine.t -> Affine.t -> t
(** Strict, encoded as [a <= b - 1] (integer semantics). *)

val gt_of : Affine.t -> Affine.t -> t
val dim : t -> int

val normalize : t -> t
(** Divides by the gcd of the coefficients.  For inequalities the constant is
    floored (integer tightening).  An equality is divided only when the gcd
    divides its constant; otherwise it has no integer solution and is
    returned unchanged, so [2x = 1] and [4x = 2] stay distinct (the solver
    refutes both, and {!Omega.digest} keeps them apart).  A
    constraint whose coefficients are all zero is returned unchanged. *)

val dedupe : t list -> t list
(** Keeps one constraint per parallel class, in first-seen order: among
    inequalities with identical coefficient vectors the one with the
    smallest constant (the strongest, given normalized inputs), and one
    copy of each repeated equality.  Equalities with equal coefficients but
    different constants are kept apart. *)

val is_trivially_true : t -> bool
val satisfied_by : t -> Bigint.t array -> bool
val extend : t -> int -> t
val rename : t -> int array -> int -> t
val subst : t -> int -> Affine.t -> t
val equal : t -> t -> bool
val negate_ge : t -> t
(** Negation of an inequality [f >= 0] as the integer inequality
    [-f - 1 >= 0].  @raise Invalid_argument on equalities. *)

val pp : string array -> Format.formatter -> t -> unit
