(** Exact integer feasibility of conjunctions of linear constraints —
    the Omega test (Pugh, CACM 1992) — under optional resource budgets.

    This is the decision procedure behind both dependence testing and the
    paper's Theorem 1 legality test for data shackles: a shackle is legal iff
    for every dependence, the system "(dependence exists) and (blocks visited
    in the wrong order)" has no integer solution.

    The test is worst-case exponential, so every query can be bounded by a
    fuel counter and a wall-clock deadline carried on the solver context,
    and is always capped by the domain's ambient deadline
    ({!Runner.with_deadline}).  A query that exhausts its budget answers
    {!Unknown} instead of running unbounded; see {!decide} for the exact
    three-valued semantics and {!satisfiable} for the conservative boolean
    collapse. *)

type verdict =
  | Sat  (** an integer solution exists (exact) *)
  | Unsat  (** no integer solution exists (exact) *)
  | Unknown of string
      (** the budget ran out before a proof either way; the payload is the
          reason (["fuel"] or ["deadline"]).  Never cached, never to be
          reported as an exact verdict. *)

type backing = {
  bk_find : string -> bool option;
  bk_store : string -> bool -> unit;
}
(** An external verdict store consulted behind the in-process memo table
    and filled on every fresh exact verdict — the hook the shackled
    daemon's persistent on-disk legality cache plugs into.  Keys are the
    16-byte {!digest}s, so entries are shareable across processes, CI
    runs and restarts.  Implementations must be domain-safe and must
    store only exact verdicts (the [bool] is [Sat]/[Unsat]; {!Unknown}
    never reaches the store). *)

val digest : System.t -> string
(** A system's cache identity: the 16-byte MD5 of a binary rendering of
    its constraints, each gcd-normalized, integer-tightened and rendered
    sparsely, the renderings sorted and deduplicated.  Invariant under
    constraint order, duplication, positive scaling and trailing fresh
    variables — two systems with equal digests have identical
    satisfiability.  The memo table and the {!backing} store are both
    keyed by it; {!decide} computes it once per query on a context that
    has either. *)

(** Explicit solver contexts: per-context query/splinter/budget counters and
    an optional memo cache over canonicalized systems.

    The autotuner asks near-identical legality questions across hundreds of
    candidate shackles (products share factors, factors share dependence
    systems), so a context created with [~cache:true] answers repeats from
    the table and records hit/miss statistics.  Keys are {!digest}s, so
    systems differing only in constraint order, duplication, scaling, or
    trailing fresh variables share an entry, an entry costs 16 bytes of
    key however large the system, and a cached verdict is exact:
    {!Unknown} results are never stored.  Budgets are fixed when a
    context is created.  All state is domain-safe: counters are atomic,
    the table mutex-protected. *)
module Ctx : sig
  type t

  val create :
    ?cache:bool ->
    ?backing:backing ->
    ?fuel:int ->
    ?timeout_ms:int ->
    ?starve_after:int ->
    unit ->
    t
  (** A fresh context with zeroed counters.
      - [cache] (default false) enables the satisfiability memo table.
      - [backing] (default none) is an external verdict store consulted on
        memo misses and filled on fresh exact verdicts (the on-disk cache).
      - [fuel] caps the solver work units any single query may spend
        (default unlimited).
      - [timeout_ms] is a per-query wall-clock deadline (default none);
        each query takes the earlier of it and the domain's ambient
        deadline ({!Runner.deadline}), so work run under a request's or a
        task's deadline needs no context of its own.
      - [starve_after] forces zero fuel on every query whose 0-based index
        on this context is [>= starve_after] — a deterministic fault-injection
        hook for testing degradation paths. *)

  val queries : t -> int
  (** Satisfiability queries answered (cache hits included). *)

  val splinters : t -> int
  (** Splinter subproblems explored by inexact eliminations. *)

  val fuel_spent : t -> int
  (** Total solver work units charged across all queries. *)

  val unknowns : t -> int
  (** Queries that gave up ({!Unknown}) — the budget-exhaustion counter. *)

  val cache_hits : t -> int

  val cache_misses : t -> int

  val backing_hits : t -> int
  (** Queries answered by the external store (disk-cache hits) — counted
      separately from [cache_hits] (memo) and [cache_misses] (solved). *)

  val cache_enabled : t -> bool

  val cache_size : t -> int
  (** Distinct canonicalized systems stored (0 when caching is off). *)
end

val decide : ctx:Ctx.t -> System.t -> verdict
(** The three-valued entry point: exact [Sat]/[Unsat] via equality
    reduction, Fourier-Motzkin with real/dark shadows, and splintering when
    the projection is inexact; [Unknown] when the budget (the context's
    fuel or deadline, or the ambient deadline) runs out first.  Counts the query (and
    consults the memo cache) on [ctx].  Memoization is sound: only exact
    verdicts enter the table, so a cache hit is never a laundered
    [Unknown]. *)

val decide_exact : ctx:Ctx.t -> System.t -> verdict
(** Test-only: {!decide} on the [Bigint] recursion alone, with no memo
    lookup, the reference the native path must match in verdict, fuel and
    splinters. *)

val satisfiable : ctx:Ctx.t -> System.t -> bool
(** [decide] collapsed to a boolean, mapping [Unknown -> true] ("may be
    satisfiable").  This direction is conservative for every caller in the
    tree: dependence analysis keeps a dependence it could not refute,
    legality treats an undecided violation system as a violation, and bound
    pruning keeps a bound it could not prove redundant.  Callers that must
    distinguish "proved" from "gave up" use {!decide}. *)

val implies : ctx:Ctx.t -> System.t -> Constr.t -> bool
(** [implies ~ctx s c] is true when every integer point of [s] satisfies
    [c].  Built on {!satisfiable}, so a budget exhaustion conservatively
    answers false ("could not prove the implication"). *)

val prepass : int -> Constr.t list -> Constr.t list -> int * bool * int
(** Test-only: the interval pre-pass of a query's first level, unbudgeted,
    on a system of the given dimension split into equalities and
    inequalities, each normalized as {!decide} normalizes it (no constant
    row).  It runs what the query runs: the inequalities deduplicated (one
    per coefficient vector, in first-seen order, with the smallest
    constant), the rows laid out as the native solver lays them out, and
    its native sweep loop; when a value leaves ±2^30 it runs the [Bigint]
    sweep loop on the same rows instead, as the query would.  Returns the
    sweeps it charges, whether it refuted the system, and the sweeps it
    actually ran: fewer than it charges when it proved that the remaining
    sweeps could not refute.  Raises [Invalid_argument] when a row is false
    on its face. *)
