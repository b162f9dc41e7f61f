(** Theorem 1: a data shackle is legal iff for every dependence
    [(S1,i) -> (S2,j)] it is impossible that the block visiting [ (S2,j)]
    comes strictly before the block visiting [(S1,i)].  Each "wrong order"
    case is one integer linear system; the shackle is legal iff all of them
    are unsatisfiable (Section 5). *)

type violation = Verdict.witness = {
  dep : Dependence.Dep.t;
  level : int;  (** block-coordinate position at which the order breaks *)
}
(** Re-export of {!Verdict.witness}: the two spellings are interchangeable. *)

type verdict = Verdict.t =
  | Legal  (** every violation system refuted (exact) *)
  | Illegal of violation list
      (** at least one violation system proved satisfiable (exact; the list
          holds only proved violations) *)
  | Unknown of string
      (** no proved violation, but the solver budget ran out before every
          system was refuted — conservatively treated as illegal by the
          boolean entry points.  The payload is the solver's reason
          (["fuel"], ["deadline"], ["cancelled"]). *)
(** Re-export of {!Verdict.t}, so [Legality.Legal] and [Verdict.Legal] are
    the same constructor. *)

val check_deps :
  ctx:Polyhedra.Omega.Ctx.t ->
  Loopir.Ast.program ->
  Spec.t ->
  Dependence.Dep.t list ->
  verdict
(** Tests every (dependence, disjunct, level) system with the Omega test,
    given the program's dependences (they do not depend on the shackle).
    [ctx] is the solver context charged for every query; a context created
    with [Omega.Ctx.create ~cache:true] memoizes the verdicts, which pays
    off when checking many candidate shackles of one program (the
    autotuner's workload).  {!Pipeline.check} runs it on the pipeline's
    context and cached dependences. *)

val probe_deps :
  ctx:Polyhedra.Omega.Ctx.t ->
  Loopir.Ast.program ->
  Spec.t ->
  Dependence.Dep.t list ->
  Verdict.t
(** Three-valued yes/no with precomputed dependences, stopping at the first
    proved violation — cheaper than {!check_deps} on illegal shackles, where
    the remaining (often expensive, unsatisfiable) systems need not be
    decided.  [Illegal] is only answered on a proved violation (the witness
    list holds exactly the one that stopped the scan); [Unknown] means the
    solver budget ran out with no violation proved. *)

val is_legal_deps :
  ctx:Polyhedra.Omega.Ctx.t ->
  Loopir.Ast.program ->
  Spec.t ->
  Dependence.Dep.t list ->
  bool
(** [probe_deps] collapsed to a boolean: true iff [Legal].  The collapse
    [Unknown -> false] is conservative — a starved budget can reject a
    legal shackle but never admit an illegal one.  With an unlimited budget
    this agrees with [check_deps = Legal]. *)

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

val pp_verdict : Format.formatter -> verdict -> unit
