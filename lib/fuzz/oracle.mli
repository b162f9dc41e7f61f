(** The differential oracle: one generated program in, a verdict out.

    Every phase runs through the {!Pipeline} facade, so each program is
    checked against one memoizing {!Polyhedra.Omega.Ctx} solver context —
    exactly the configuration the autotuner uses in production.

    Every layer runs on every program, each cross-checked against ground
    truth or a second implementation:

    - {b Roundtrip}: pretty-printing is a textual fixpoint through the
      parser ([print (parse (print p)) = print p]).
    - {b Legality}: for every enumerated shackle spec, the symbolic Omega
      verdict and the per-N verdict must agree exactly with brute-force
      enumeration of dependent instance pairs at each small N — in both
      directions (no missed violations, no phantom ones).
    - {b Codegen}: for every spec the checker calls legal, the tightened
      blocked program must compute the same store as the original at each
      verification size (up to reassociation tolerance).
    - {b Replay}: record-once/replay-many cache simulation: with a tiny
      chunk size to force flush boundaries, [Model.record]'s address-only
      execution must record {!Brute.record}'s words, chunks and bytes (the
      enumerated accesses laid out through [Store.offset]) and count the
      value path's flops, and
      the stored-trace [consume] path (one walk per machine, forwarding
      derived) must reproduce the direct streaming simulation (the same
      walk, fed 256-word chunks as they are recorded) exactly — every
      counter, level stat, and cycle
      figure — across all (machine x quality) variants, on the original
      program and on the first legal blocked variant.
    - {b Tune}: {!Tune.consistency_step} — the memoized and cache-less
      solver contexts must return identical legality verdicts over the
      program's single-factor spec lattice.
    - {b Wire}: {!Wire.storm} — an in-process shackled daemon serving
      this program must stay total, structured and deterministic under a
      seeded storm of mutated protocol frames.
    - {b Par}: the dependence-aware block scheduler ({!Sched}) executed
      over 1, 2 and 3 worker domains must be bit-identical to one
      sequential execution (the value path's store and flops, and
      [Model.record]'s trace) — stores compared as Int64 bit patterns, the
      deterministically merged trace word for word including chunk
      accounting, flop counts exactly, and the shared-L2 multicore replay
      identical across worker counts — on the original program and on
      the first legal blocked variant.
    - {b Stage}: per-size specialization ({!Loopir.Stages.specialize})
      must be trace-preserving — at every verification size, executing
      the specialized program end to end must agree bit for bit with the
      symbolic one (the value path's stores as Int64 bit patterns and flop
      counts, and [Model.record]'s trace including chunk accounting) — on
      the original
      program and on the first legal blocked variant, where the
      simplification stages do real work.
    - {b Bound}: the {!Bounds} analytic communication lower bound must
      be sound against the simulator — per cache level, on every
      (machine x quality) variant, the bound never exceeds the simulated
      miss count — on the original program (order-free argument) and on
      the first legal blocked variant (windowed per-spec argument).
      Non-affine programs are skipped.

    The legality check goes through a {e hook} so tests can inject a broken
    checker and watch the fuzzer catch and shrink it. *)

type kind =
  | Roundtrip
  | Legality
  | Codegen
  | Replay
  | Tune
  | Par
  | Wire
  | Stage
  | Bound
  | Crash
  | Timeout

type failure = {
  kind : kind;
  detail : string;  (** human-readable description of the mismatch *)
  spec_text : string option;  (** the failing spec, when one is involved *)
}

type hooks = {
  legality :
    Pipeline.t ->
    Shackle.Spec.t ->
    deps:Dependence.Dep.t list ->
    Shackle.Verdict.t;
}
(** Three-valued so a budgeted run can tell the oracle it {e gave up}: an
    [Unknown] verdict is excluded from the differential comparison (it is
    an artifact of the budget, not a checker bug) and counted in
    [stats.gave_up]. *)

val default_hooks : hooks
(** [Pipeline.probe_deps] — the real checker, charged to the pipeline's
    memoizing solver context. *)

val always_legal_hooks : hooks
(** A deliberately broken checker that calls everything legal; exists so the
    test suite can demonstrate that the oracle catches legality bugs and the
    shrinker minimizes them. *)

(** Solver bounds for one oracle run: [fuel]/[starve_after] configure the
    pipeline's solver context.  The wall-clock bound is the ambient
    deadline ({!Runner.with_deadline}): every layer's solver queries give
    up past it, and {!check} polls it between phases. *)
type budget = { fuel : int option; starve_after : int option }

type config = {
  ns : int list;  (** N values for the brute-force legality cross-check *)
  verify_ns : int list;  (** N values for execution equivalence *)
  block_sizes : int list;  (** block sizes to instantiate per array *)
  max_specs : int;  (** cap on specs checked per program *)
}

val quick : config
val thorough : config

type stats = {
  specs : int;
  legal_specs : int;
  verified : int;  (** (spec, N) executions compared *)
  skipped : int;  (** verifications skipped for overflow safety *)
  tune_checked : int;  (** specs compared by the tune consistency layer *)
  par_checked : int;
      (** (variant, worker-count) parallel executions compared bit-exactly
          against sequential by the par layer *)
  wire_checked : int;
      (** protocol frames checked by the wire layer (storm + determinism
          pass) *)
  chaos_checked : int;
      (** hostile delivery schedules survived by the wire layer's chaos
          pass (dribbled frames, mid-frame abandonment, interleaved
          sessions) *)
  stage_checked : int;
      (** (program, N) specialization executions compared bit-exactly
          against symbolic by the stage layer *)
  bound_checked : int;
      (** (program, machine x quality) simulations whose per-level miss
          counts were checked against the analytic lower bound *)
  gave_up : int;
      (** legality verdicts that ran out of budget ([Unknown]) and were
          excluded from the differential comparison — non-zero only on
          budgeted runs *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

val check :
  ?hooks:hooks ->
  ?budget:budget ->
  config ->
  Loopir.Ast.program ->
  (stats, failure) result
(** Run every layer.  Never raises except {!Runner.Expired} (an expired
    deadline is the supervisor's business, not a verdict on the program):
    any other exception from any layer is reported as a {!Crash} failure.
    A layer that fails once the deadline has passed raises
    {!Runner.Expired} instead of reporting the failure, since its solver
    queries may have given up at the deadline.  The tune layer is skipped on fuel-bounded runs,
    whose verdicts are not exact.  Every other layer runs under a budget
    too: a starved scheduler plan degrades to the sequential chain, which
    must still be bit-equivalent; a starved daemon may answer
    [unknown:...], but in well-formed frames; specialization and the bound
    computation never consult the solver. *)

val kind_string : kind -> string

val kind_of_string : string -> kind option
(** Inverse of {!kind_string} (checkpoint rows round-trip through it). *)
