(** First-class, machine-readable observations of the simulation layer.

    Every call into the cache simulator yields a [sim] record: per-level
    hits/misses/evictions, flop and statement-instance counts, the cycle
    model's outputs, and the wall-clock time the simulation itself took.
    Records are gathered through a domain-local collector so that
    experiment points fanned out over a {!Runner}-style pool each
    accumulate their own metrics without sharing mutable state; the
    per-task collections are merged by the caller in deterministic task
    order. *)

type level = {
  lv_name : string;
  lv_accesses : int;
  lv_hits : int;
  lv_misses : int;
  lv_evictions : int;
}

(** Trace-pipeline accounting for one simulation row.  [tr_executions] is
    1 on the row whose series triggered the interpreter execution and 0 on
    rows that reused the shared recording, so summing it over a figure's
    metrics counts the real interpreter executions — the quantity the
    record-once / replay-many pipeline is supposed to shrink to one per
    (program variant, size) point. *)
type trace_info = {
  tr_executions : int;  (** interpreter executions this row triggered *)
  tr_length : int;  (** accesses in the shared trace *)
  tr_chunks : int;  (** chunks the recorder flushed *)
  tr_bytes : int;  (** peak bytes held by the stored trace *)
  tr_record_seconds : float;  (** 0 on rows that reused the recording *)
  tr_replay_seconds : float;  (** wall-clock of this row's replay *)
}

type sim = {
  sim_label : string;  (** e.g. ["cholesky_right/N=60/input"] *)
  sim_machine : string;
  sim_quality : string;
  sim_flops : int;
  sim_instances : int;
  sim_accesses : int;
  sim_levels : level list;
  sim_cycles : float;
  sim_mflops : float;
  sim_seconds : float;  (** wall-clock of this one simulation *)
  sim_trace : trace_info option;
      (** present on rows produced by the record/replay pipeline *)
}

val sim_to_json : sim -> Json.t
val sim_of_json : Json.t -> (sim, string) result
(** Inverse of [sim_to_json]; [Error] names the first missing or
    ill-typed field. *)

(** {2 Solver-context statistics}

    A snapshot of one {!Polyhedra.Omega.Ctx}'s counters, for embedding in
    reports: total satisfiability queries, splinter recursions, fuel spent
    and budget exhaustions ([so_unknowns]), and — when the context
    memoizes — legality-cache hits/misses and table size.  A non-zero
    [so_unknowns] marks a degraded report: some verdicts mean "gave up",
    not "proved". *)

type solver = {
  so_queries : int;
  so_splinters : int;
  so_fuel_spent : int;
  so_unknowns : int;
  so_cache_hits : int;
  so_cache_misses : int;
  so_backing_hits : int;
      (** verdicts answered by an external store (the daemon's disk cache)
          rather than the in-process memo or a fresh solve *)
  so_cache_size : int;
  so_cache_enabled : bool;
}

val solver_of_ctx : Polyhedra.Omega.Ctx.t -> solver
val solver_to_json : solver -> Json.t

val solver_of_json : Json.t -> (solver, string) result
(** Inverse of [solver_to_json]; [Error] names the first bad field. *)

val solver_solves : solver -> int
(** Queries that actually ran the Omega test:
    queries - memo hits - backing hits.  Zero on a fully warm cache. *)

(** {2 Disk-cache metrics}

    Counters of one {!Server.Diskcache} handle (the daemon's persistent
    legality store), for the [stats] RPC and bench reports. *)

type diskcache = {
  dc_entries : int;  (** distinct digests resident *)
  dc_bytes : int;  (** valid on-disk bytes (header + records) *)
  dc_hits : int;
  dc_misses : int;
  dc_appended : int;  (** records written by this handle *)
  dc_dropped : int;  (** torn-tail bytes truncated at open *)
}

val diskcache_to_json : diskcache -> Json.t

val diskcache_of_json : Json.t -> (diskcache, string) result
(** Inverse of [diskcache_to_json]; [Error] names the first bad field. *)

(** {2 Wall-clock helpers} *)

val now_s : unit -> float
(** [Unix.gettimeofday], re-exported so other libraries need no direct
    unix dependency. *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] is [(f (), elapsed_wall_clock_seconds)]. *)

(** {2 Domain-local collection} *)

val record : sim -> unit
(** Append to the current domain's active collection (a no-op when no
    {!collect} is in flight in this domain). *)

val collect : (unit -> 'a) -> 'a * sim list
(** [collect f] runs [f] with a fresh collection installed for the
    current domain and returns everything {!record}ed during the call, in
    record order.  Nests: the enclosing collection is restored afterwards
    (also on exceptions) and does {e not} see the inner records. *)

(** {2 Record once, replay per series} *)

val record_replay :
  (unit -> Machine.Model.recording) ->
  (string * Machine.Model.t * Machine.Model.quality) list ->
  Machine.Model.result list
(** [record_replay run series] times one recording [run ()], replays it
    through each [(label, machine, quality)] series in order and
    {!record}s one row per series, labeled [label], with its
    {!trace_info}: the execution and its seconds are charged to the first
    row, so the rows' [tr_executions] sum to 1.  Returns the results in
    series order.  {!Runner.check} runs before the recording and before
    each replay, so work under a deadline stops between series with
    {!Runner.Expired}. *)
