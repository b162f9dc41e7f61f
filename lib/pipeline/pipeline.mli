(** The single public entry point to the compiler pipeline:
    parse -> dependence analysis -> shackle legality -> code generation ->
    execution / cache simulation.

    A {!t} binds a program to one {!Polyhedra.Omega.Ctx} solver context and
    caches the program's symbolic dependence analysis.  All downstream
    phases charge their Omega queries to that context; by default it is
    created with the legality memo table enabled, so checking many
    candidate shackles of the same program (the autotuner's workload) hits
    the cache on shared constraint systems. *)

type t

val create : ?solver:Polyhedra.Omega.Ctx.t -> Loopir.Ast.program -> t
(** Wrap an already-parsed program.  [solver] defaults to a fresh
    [Omega.Ctx.create ~cache:true ()]. *)

val parse : ?solver:Polyhedra.Omega.Ctx.t -> string -> (t, string) result
(** Parse concrete syntax; errors are ["line %d: %s"].  A program the
    parser accepts but dependence analysis cannot represent (a [max] in an
    upper bound, a [min] in a lower bound, either in a guard or a
    subscript) is an error naming the expression:
    ["not analyzable: EXPR is not affine"]. *)

val program : t -> Loopir.Ast.program
val solver : t -> Polyhedra.Omega.Ctx.t

val deps : t -> Dependence.Dep.t list
(** Symbolic dependence analysis, computed once per pipeline (thread-safe;
    safe to call from parallel workers sharing one [t], though legality and
    codegen are normally run sequentially). *)

val deps_at : t -> params:(string * int) list -> Dependence.Dep.t list
(** Dependences at concrete parameter bindings — not cached. *)

val probe : t -> Shackle.Spec.t -> Shackle.Verdict.t
(** The Theorem-1 verdict ({!Shackle.Legality.probe_deps}) against the
    cached symbolic dependences: when the pipeline's solver context carries
    a budget, [Unknown] distinguishes "gave up" from the proved [Illegal],
    whose witness is the first violation the scan proved.  Render with
    {!Shackle.Verdict.to_string} — the spelling shared by [shacklec] and
    the shackled wire protocol — or {!Shackle.Verdict.pp}. *)

val probe_deps :
  t -> Shackle.Spec.t -> deps:Dependence.Dep.t list -> Shackle.Verdict.t
(** {!probe} with caller-supplied dependences (e.g. [deps_at]). *)

val is_legal : t -> Shackle.Spec.t -> bool
(** [Shackle.Verdict.is_legal (probe t spec)]: [Unknown] collapses to
    [false]. *)

val choices :
  t -> array:string -> (string * Loopir.Fexpr.ref_) list list
(** Per-statement reference choices for shackling [array]
    (see {!Shackle.Legality.enumerate_choices}). *)

val codegen :
  ?naive:bool ->
  ?stages:Loopir.Stages.stage list ->
  t ->
  Shackle.Spec.t ->
  Loopir.Ast.program
(** Blocked code for a legal spec; [naive] (default false) selects the
    Figure-5 form instead of the tightened form.  [stages] composes extra
    named simplifier stages after the generator's standard post-pass. *)

val codegen_cached : t -> Shackle.Spec.t -> Loopir.Ast.program
(** Like {!codegen} (tightened, no extra stages), but memoized per spec on
    this pipeline — the single symbolic derivation (legality systems,
    Omega pruning, bound tightening) that an entire N sweep shares.
    Thread-safe; concurrent first calls may both generate, one result is
    kept. *)

val variant : t -> Shackle.Spec.t option -> Loopir.Ast.program
(** The original program for [None], tightened blocked code for [Some]. *)

val specialize :
  ?spec:Shackle.Spec.t -> t -> params:(string * int) list -> Loopir.Ast.program
(** The chosen variant instantiated at concrete parameter values: symbolic
    codegen comes from {!codegen_cached} (one Omega derivation per (kernel,
    spec) across a sweep), then {!Loopir.Stages.specialize} substitutes
    [params] and runs the solver-free specialization pipeline — entailed
    guards vanish and inner loops become straight-line index arithmetic,
    with the access trace bit-identical to the symbolic program's.  The
    result keeps its [params] list, so {!Exec.Interp} invocations bind the
    same names as the unspecialized variant. *)

val record :
  t ->
  params:(string * int) list ->
  init:(string -> int array -> float) ->
  Machine.Model.recording
(** Execute the pipeline's program once, capturing the full access trace
    (machine/quality independent — replay it with {!consume}).  This is
    {!Machine.Model.record}: it computes addresses only, so [init] is not
    called; it stays in the signature for the callers that pass it. *)

val consume :
  machine:Machine.Model.t ->
  quality:Machine.Model.quality ->
  Machine.Model.recording ->
  Machine.Model.result
(** Re-exported {!Machine.Model.consume}. *)

val run :
  t ->
  params:(string * int) list ->
  init:(string -> int array -> float) ->
  Exec.Store.t * int
(** Execute the pipeline's program; returns (final store, flop count). *)

val verify :
  ?spec:Shackle.Spec.t ->
  t ->
  params:(string * int) list ->
  init:(string -> int array -> float) ->
  float
(** Largest elementwise difference between original and variant. *)
