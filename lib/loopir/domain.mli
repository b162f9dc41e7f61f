(** Statement domains as polyhedral systems.

    The space of a statement is [params ++ loop variables (outer to inner)].
    The domain contains the loop-bound constraints and the enclosing guards.
    Only analysable programs are accepted: affine subscripts and guards, and
    loop bounds whose pieces (a [max] of lower bounds, a [min] of upper
    bounds) are each affine or the floor or ceiling of an affine form over
    a positive divisor, as the code generator writes them. *)

exception Not_affine of string

type space = {
  names : string array;   (** params first, then loop vars outer-to-inner *)
  param_count : int;
}

val space_of : Ast.program -> Ast.context -> space
val depth : space -> int
(** Number of loop variables. *)

val domain_of : Ast.program -> Ast.context -> Polyhedra.System.t
(** @raise Not_affine on a bound or guard outside that class (a [max] in
    an upper bound, a [min] in a lower bound, either in a guard),
    carrying the expression. *)

val access : space -> Fexpr.ref_ -> Polyhedra.Affine.t list
(** Affine forms of each subscript, over the space.
    @raise Not_affine on non-affine subscripts. *)

val access_matrix : Ast.program -> Ast.context -> Fexpr.ref_ -> Linalg.Mat.t
(** The paper's data access matrix F (Theorem 2): rows are subscripts,
    columns are the enclosing loop variables; parameters and constants are
    dropped. *)
