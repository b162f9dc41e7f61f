(** Theorem 1: a data shackle is legal iff for every dependence
    [(S1,i) -> (S2,j)] it is impossible that the block visiting [ (S2,j)]
    comes strictly before the block visiting [(S1,i)].  Each "wrong order"
    case is one integer linear system; the shackle is legal iff all of them
    are unsatisfiable (Section 5). *)

val probe_deps :
  ctx:Polyhedra.Omega.Ctx.t ->
  Loopir.Ast.program ->
  Spec.t ->
  Dependence.Dep.t list ->
  Verdict.t
(** The Theorem-1 scan, given the program's dependences (they do not depend
    on the shackle).  It decides the (dependence, disjunct, level) systems
    in order with the Omega test and stops at the first one proved
    satisfiable: [Illegal] carries that [(dep, level)].  A system the
    budget leaves undecided does not stop the scan; [Unknown] means no
    violation was proved but at least one system went undecided, and
    carries the first such reason.  A product whose factors are each
    [Legal] is [Legal] without the product's own scan (Section 6).  [ctx]
    is the solver context charged for every query; a context created with
    [Omega.Ctx.create ~cache:true] memoizes the verdicts, which pays off
    when checking many candidate shackles of one program (the autotuner's
    workload).  {!Pipeline.probe} runs it on the pipeline's context and
    cached dependences. *)

type pair_system = {
  ps_system : Polyhedra.System.t;
      (** one dependence disjunct, extended with both sides'
          block-coordinate binding constraints *)
  ps_src_base : int;  (** index of the first source block coordinate *)
  ps_dst_base : int;  (** index of the first destination block coordinate *)
  ps_coords : int;  (** number of block coordinates per side *)
  ps_params : (string * int) list;
      (** program parameter name -> variable index, for fixing sizes *)
}

val block_pair_systems :
  Loopir.Ast.program -> Spec.t -> Dependence.Dep.t -> pair_system list
(** The systems the legality test quantifies over, without any ordering
    constraint: a solution is a (source instance, destination instance)
    pair related by the dependence together with the block coordinates of
    both sides.  The parallel scheduler probes these for the feasible range
    of [zd_k - zs_k] to build its block-task DAG; on a legal shackle every
    solution has [zs <=lex zd], so the induced edges always point
    lexicographically forward. *)

val enumerate_choices :
  Loopir.Ast.program -> array:string -> (string * Loopir.Fexpr.ref_) list list
(** All ways of picking one reference to [array] from every statement
    (Section 6.1 enumerates these six for right-looking Cholesky).
    Statements with no reference to [array] make the result empty; add a
    dummy reference first. *)
