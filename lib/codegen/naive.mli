(** Naive code generation for a data shackle: block-coordinate loops around
    the original program, with every statement guarded by the conditions
    "the data touched by its chosen reference lies in the current block" —
    exactly Figure 5 of the paper.  Inefficient but trivially correct; the
    semantic reference for the simplifier. *)

val generate :
  Loopir.Ast.program ->
  Shackle.Spec.t ->
  Loopir.Ast.program
(** The result has the coordinate loops [t1..tm] outermost (bounds derived
    from the blocked arrays' extents) and is directly executable.  The
    post-pass is {!Loopir.Stages.naive_pipeline} (constant folding only).
    @raise Invalid_argument if a coordinate name collides with an existing
    variable or a choice is missing. *)

val coord_loop_ranges :
  Loopir.Ast.program -> Shackle.Spec.t -> (string * Loopir.Expr.t * Loopir.Expr.t) list
(** The [t]-loop bounds used by [generate]. *)
