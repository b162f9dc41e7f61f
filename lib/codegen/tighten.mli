(** Simplified code generation: Fourier-Motzkin bound tightening plus
    integer-implication guard elimination.

    Plays the role of the Omega calculator in the paper (Section 4.1: "the
    conditionals are affine conditions ... they can be simplified using any
    polyhedral algebra tool"): the naive Figure-5 form is turned into the
    Figure-6/7/10 form.  The transformation is semantics-preserving by
    construction — per statement, the set of executed instances provably
    equals the statement's shackled instance set — and is additionally
    cross-checked against the naive form and the reference semantics in the
    test suite. *)

val generate :
  solver:Polyhedra.Omega.Ctx.t ->
  Loopir.Ast.program ->
  Shackle.Spec.t ->
  Loopir.Ast.program
(** Blocked program with tightened loop bounds and minimized guards.
    Loops whose range is a single affine point are substituted away, as
    the paper does for the ADI kernel (Figure 14).  The post-pass is
    {!Loopir.Stages.tighten_pipeline}.
    [solver] is the context charged for the Omega pruning queries
    ({!Pipeline.codegen} passes the pipeline's own); the generated program
    does not depend on it. *)

val stats : Loopir.Ast.program -> int * int
(** (loops, guards) in a generated program — used by tests and benches to
    compare code complexity. *)
