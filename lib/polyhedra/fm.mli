(** Rational Fourier-Motzkin elimination with bound extraction.

    Used for projecting dependence/legality systems and, crucially, by the
    code generator: the bounds of a loop variable are exactly the lower/upper
    bound forms of that variable in the statement's polyhedron after the
    deeper variables have been eliminated. *)

type bound = { coef : Bigint.t; form : Affine.t }
(** A lower bound [coef * x >= form] or an upper bound [coef * x <= form];
    [coef > 0] and [form] does not mention [x]. *)

val bounds_of : System.t -> int -> bound list * bound list
(** [(lowers, uppers)] for the given variable.  Equalities contribute to
    both sides. *)

val eliminate : System.t -> int -> System.t
(** Rational FM elimination of one variable.  The result has the same
    dimension, with the variable unconstrained.  Constraints are normalized
    with integer tightening (safe because all our systems denote integer
    sets). *)

val eliminate_list : System.t -> int list -> System.t

val compress : System.t -> System.t
(** Normalization, syntactic deduplication, and removal of constraints
    dominated by a parallel constraint with a stronger constant. *)
