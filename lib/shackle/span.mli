(** Theorem 2: an unshackled reference in statement [S] touches a bounded
    amount of data per block iff every row of its access matrix is in the
    rational row span of the shackled references' access matrices.  This
    guides how far to carry Cartesian products (Section 6.2: "if no
    statement has an unconstrained reference, there is no benefit in
    extending the product"). *)

val unconstrained_refs :
  Loopir.Ast.program ->
  Spec.t ->
  (Loopir.Ast.stmt * Loopir.Fexpr.ref_) list
(** References (across all statements, LHS and reads) whose data is not
    bounded by the product's choices. *)

val fully_constrained : Loopir.Ast.program -> Spec.t -> bool
