(** Cost-model-guided shackle autotuning (the search procedure of
    Section 8), behind the {!Pipeline} facade.

    The candidate lattice is (data-centric reference per statement) x
    (cutting-plane block size) x (Cartesian-product depth).  Products grow
    only while Theorem 2 says extending helps — a factor is appended only
    when it strictly shrinks the set of unconstrained references — and
    every candidate is decided by Theorem 1 through one memoizing solver
    context ({!Polyhedra.Omega.Ctx}), so systems shared between products
    and their factors are solved once.

    Survivors are evaluated by record-once / replay-many simulation:
    candidates whose generated programs coincide share one interpreter
    recording, replayed per (machine x quality) series over a supervised
    {!Runner.map_outcomes} pool — a group that crashes or exceeds
    [timeout_ms] becomes a failure row, not a campaign abort.
    Enumeration, legality and code generation are sequential, so
    everything in the report except wall-clock timing is independent of
    [domains]. *)

type mode = Exhaustive | Beam of int  (** beam width per product level *)

val mode_string : mode -> string

type options = {
  sizes : int list;  (** square block sizes to enumerate *)
  depth : int;  (** maximum number of product factors *)
  mode : mode;
  domains : int;  (** simulation fan-out; results are independent of it *)
  machines : Machine.Model.t list;
  qualities : Machine.Model.quality list;
      (** evaluated series = machines x qualities; the head of each list is
          the ranking series *)
  cache : bool;  (** memoize legality queries in the solver context *)
  cache_compare : bool;  (** run the cold/warm cache effectiveness pass *)
  shuffle_seed : int option;
      (** deterministically shuffle candidate order before evaluation —
          the ranked table must not change (tested) *)
  timeout_ms : int option;
      (** wall-clock budget: per legality query (solver deadline) and per
          evaluation group (supervised pool deadline); [None] = unlimited *)
  fuel : int option;
      (** solver fuel per legality query; a query that runs out comes back
          [`Unknown] and its candidate is counted in [n_unknown] *)
  ns : int list;
      (** evaluation problem sizes: [[]] (default) evaluates at the
          caller's [params] only; a non-empty list sweeps N over these
          values, re-using each candidate's one generated program (codegen
          and every Omega query run once regardless of the sweep's length)
          and ranking by cycles summed over the sweep.  Each evaluated
          program is instantiated at its concrete sizes through the
          solver-free {!Loopir.Stages.specialize} before recording; the
          trace is bit-identical to the symbolic program's *)
  prune_bounds : bool;
      (** evaluate sequentially, best-first by the {!Bounds} analytic
          communication lower bound, skipping any candidate whose
          lower-bounded cycle cost strictly exceeds the incumbent's
          simulated cycles.  Sound for the winner (the bound never
          exceeds the simulated cost), counted in [n_pruned_by_bound];
          default off *)
}

val default_options : options
(** sizes [16], depth 2, exhaustive, 1 domain, sp2-like x untuned,
    cache on, no compare, no shuffle, no budget, no N sweep, bound
    pruning off. *)

type candidate = {
  c_spec : Shackle.Spec.t;
  c_label : string;  (** canonical rendering; dedup key and ranking tie-break *)
  c_factors : int;
  c_unconstrained : int;  (** references not bounded by the choices (Thm 2) *)
  c_fully_constrained : bool;
}

val spec_label : Shackle.Spec.t -> string

type counts = {
  n_enumerated : int;  (** distinct candidates considered *)
  n_pruned : int;  (** extensions discarded by the Theorem 2 test *)
  n_illegal : int;  (** proved illegal (a violating system is satisfiable) *)
  n_unknown : int;
      (** the solver gave up within the budget — dropped like illegal
          candidates (conservative), but distinguishable in the report *)
  n_legal : int;
  n_variants : int;  (** distinct generated programs (recordings taken) *)
  n_pruned_by_bound : int;
      (** legal candidates skipped by the analytic lower-bound pruner;
          zero unless [options.prune_bounds] *)
}

type scored = {
  s_cand : candidate;
  s_results : (string * string * Machine.Model.result) list;
      (** (machine, quality, result) per series, in series order, at the
          first evaluated size *)
  s_sweep : (int option * float) list;
      (** head-series cycles per evaluated size ([None] = the caller's
          [params]); singleton unless [options.ns] sweeps *)
  s_cycles : float;  (** head series, summed over the sweep; the ranking
          key — ties break toward fewer unconstrained references
          (Theorem 2), then fewer factors, then the canonical label *)
  s_mflops : float;
  s_bounds : (string * (string * int) list) list;
      (** per machine, per cache level: this candidate's analytic miss
          lower bound at the first evaluated size ({!Bounds.misses});
          [[]] when the program is outside the affine class the analysis
          covers.  Reports derive headroom = simulated misses / bound
          from this — >= 1.0 by soundness. *)
}

type eval_failure = {
  ef_label : string;
      (** canonical label of the failed group's head candidate *)
  ef_reason : string;  (** ["crash: ..."] or ["timed out ..."] *)
}
(** One recording group that crashed or timed out under the supervised
    pool: its candidates are excluded from [rp_table], the campaign
    completes and reports the row instead of aborting. *)

type cache_compare = {
  cc_cold_seconds : float;
  cc_warm_seconds : float;
  cc_warm_hits : int;
  cc_agree : bool;  (** cold and warm verdicts identical (asserted in CI) *)
}

type timing = {
  t_enumerate : float;  (** includes all legality queries *)
  t_codegen : float;
  t_evaluate : float;
  t_total : float;
}

type report = {
  rp_kernel : string;
  rp_params : (string * int) list;
  rp_options : options;
  rp_counts : counts;
  rp_solver : Observe.Metrics.solver;
  rp_timing : timing;
  rp_cache_compare : cache_compare option;
  rp_input_cycles : float;
      (** the unshackled program on the head series, summed over the same
          evaluation sweep as the candidates *)
  rp_table : scored list;  (** ranked, best first *)
  rp_failures : eval_failure list;  (** evaluation groups that did not finish *)
  rp_metrics : Observe.Metrics.sim list;
}

val best : report -> scored option

val tune :
  ?options:options ->
  ?arrays:string list ->
  ?init:(string -> int array -> float) ->
  kernel:string ->
  params:(string * int) list ->
  Loopir.Ast.program ->
  report
(** Run the full enumerate -> prune -> check -> generate -> simulate
    pipeline.  [arrays] defaults to {!Shackle.Search.default_arrays};
    [init] to {!Kernels.Inits.for_kernel} (so results are deterministic
    given [kernel] and [params]). *)

val consistency_step :
  ?sizes:int list -> ?max_specs:int -> Loopir.Ast.program -> (int, string) result
(** Differential check for the fuzz harness: cached and cache-less solver
    contexts must give identical legality answers over the program's
    single-factor lattice.  [Ok n] compared [n] specs. *)

(** {2 Reports} *)

val report_to_json : report -> Observe.Json.t
(** Schema {!Report.tune_report}, stable: keys in fixed order; the ["cache_compare"] key is
    appended only when the pass ran; everything outside ["timing"],
    ["metrics"] and ["cache_compare"] is byte-identical across runs and
    across [domains]. *)

val check_report_json : Observe.Json.t -> (unit, string) result
(** Structural validation of a serialized report ([--check-json]). *)

val pp_report : Format.formatter -> report -> unit
