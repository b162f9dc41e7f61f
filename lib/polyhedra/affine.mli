(** Affine forms [c0 + a1*x1 + ... + an*xn] over a fixed-dimension variable
    space, with {!Bigint} coefficients. *)

type t = private { coeffs : Bigint.t array; const : Bigint.t }

val dim : t -> int
val make : Bigint.t array -> Bigint.t -> t
val zero : int -> t
val const : int -> Bigint.t -> t
val of_int : int -> int -> t
(** [of_int dim c] is the constant form [c]. *)

val var : int -> int -> t
(** [var dim i] is the form [xi]. *)

val of_ints : int list -> int -> t
(** [of_ints coeffs const] builds a form from native ints. *)

val coeff : t -> int -> Bigint.t
val const_of : t -> Bigint.t
val is_constant : t -> bool

(** The row operations below, [subst], [content], [divexact] and
    [div_floor] run each coefficient inline while its operands are
    immediates, and call {!Bigint} only for a boxed operand or on an
    overflow: every result is the value the per-coefficient {!Bigint}
    operation returns. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Bigint.t -> t -> t
val scale_int : int -> t -> t
val add_const : t -> Bigint.t -> t

val combine : Bigint.t -> t -> Bigint.t -> t -> t
(** [combine b u a l] is [b*u - a*l] in one pass: the Fourier-Motzkin
    combination of a lower bound [b*x >= l] with an upper bound
    [a*x <= u]. *)

val set_coeff : t -> int -> Bigint.t -> t

val eval : t -> Bigint.t array -> Bigint.t
val eval_int : t -> int array -> Bigint.t

val subst : t -> int -> t -> t
(** [subst a k e] replaces variable [k] by the form [e] in [a].
    [e] must not mention [k]. *)

val extend : t -> int -> t
(** [extend a n] reinterprets [a] in a larger space of dimension [n]
    (new trailing variables get coefficient 0). *)

val rename : t -> int array -> int -> t
(** [rename a perm n] maps variable [i] of [a] to variable [perm.(i)] of a
    new [n]-dimensional space. *)

val content : t -> Bigint.t
(** Gcd of all coefficients (not the constant); zero for constant forms. *)

val divexact : t -> Bigint.t -> t
(** Divides every coefficient and the constant exactly. *)

val div_floor : t -> Bigint.t -> t
(** [div_floor a k] divides every coefficient exactly by [k > 0] and floors
    the constant: the integer tightening of [a >= 0] by the content [k]. *)

val equal : t -> t -> bool
val vars : t -> int list
(** Indices with nonzero coefficient, ascending. *)

val pp : string array -> Format.formatter -> t -> unit
(** Pretty-print with the given variable names. *)
