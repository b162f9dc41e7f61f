(** The machine model standing in for the paper's IBM SP-2 thin node.

    Programs are interpreted, their element accesses are fed through a
    multi-level cache simulator, and a simple cycle model converts hits,
    misses and flops into a MFlops-style figure of merit.  Two code-quality
    knobs reproduce the distinctions the paper draws between compiler
    generated inner loops and hand-tuned BLAS:

    - [forwarding]: back-to-back accesses to the same element cost nothing
      (register allocation / scalar replacement of accumulators).
    - [overhead]: extra cycles charged per statement instance (address
      arithmetic and loop overhead of poorly optimized inner loops).

    The paper's series map to quality presets: the input and
    compiler-generated codes run with [untuned] quality (the xlf back end
    "does not perform necessary optimizations like scalar replacement"),
    the DGEMM-replaced and LAPACK series with [tuned] quality. *)

type level_spec = {
  l_name : string;
  l_cache : Cache.config;
  l_hit_cycles : float;
}

type t = {
  m_name : string;
  levels : level_spec list;  (** fastest first *)
  mem_cycles : float;        (** cost of missing every level *)
  flop_cycles : float;
  clock_mhz : float;
  elem_bytes : int;
}

type quality = {
  q_name : string;
  overhead : float;
  forwarding : bool;
}

val sp2_like : t
(** One 64 KB 4-way data cache with 128-byte lines in front of memory —
    the thin-node POWER2 shape used in Section 7. *)

val two_level : t
(** Adds a 1 MB 8-way second level: the "deeper memory hierarchy" of
    Section 6.3 / Figure 10. *)

val small_cache : t
(** A 4 KB single-level cache (32 lines) with sp2-like cost ratios:
    capacity effects — and with them the analytic communication lower
    bounds of {!Bounds} — become visible at problem sizes small enough
    for quick simulation, which is what the lower-bound pruning smoke
    tests run against. *)

val untuned : quality
val tuned : quality

type level_stat = {
  s_name : string;
  s_accesses : int;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
}

type result = {
  r_flops : int;
  r_instances : int;
  r_accesses : int;
  r_levels : level_stat list;
  r_cycles : float;
  r_mflops : float;
}

(** An explicit simulator instance: one cache hierarchy plus trace
    counters.  Instances share no state with each other or with anything
    global, so parallel experiment runners create one per task (worker)
    and never hand one across domains.

    Per-access work is pure counter updates against flat cache arrays;
    cycle costs are folded in once, in closed form, when {!Sim.result} is
    built: cycles = flops x flop_cycles + Σ level hits x hit_cycles +
    memory misses x mem_cycles + instances x overhead.  Every cost
    constant is integer or dyadic, so this is bit-identical to per-access
    accumulation. *)
module Sim : sig
  type sim

  val create : machine:t -> quality:quality -> sim

  val access : sim -> write:bool -> addr:int -> unit
  (** Feed one element access through the hierarchy (instance counting,
      forwarding dedup, cache probing). *)

  val consume_chunk : sim -> int array -> int -> unit
  (** Replay one chunk of packed trace words — the hot loop of the
      record/replay pipeline. *)

  val result : sim -> flops:int -> result
  (** Closed-form cycle accounting over the counters accumulated so far. *)
end

(** {2 Record once, replay many} *)

type recording = { rec_trace : Trace.t; rec_flops : int }
(** The access stream of one interpreter execution.  Recording does not
    depend on machine or quality (forwarding dedup happens at replay), so
    one recording serves every (machine x quality) series. *)

val record :
  ?layouts:(string * Exec.Store.layout) list ->
  ?chunk_words:int ->
  Loopir.Ast.program ->
  params:(string * int) list ->
  init:(string -> int array -> float) ->
  recording
(** Execute the program once, capturing the full access trace. *)

val consume : machine:t -> quality:quality -> recording -> result
(** Replay a recording into a fresh simulator instance.  For any machine
    and quality, [consume ~machine ~quality (record p)] produces exactly
    the same result as [simulate ~machine ~quality p]. *)

(** A P-core machine built from a uniprocessor spec: every core gets a
    private copy of the first cache level; the remaining levels and memory
    are shared.  Replay consumes the per-task traces of a scheduled
    parallel execution ({!Sched} in lib/sched): within each wavefront
    group, tasks go to virtual cores round-robin in task order and the
    per-core streams are interleaved in fixed quanta, core 0 first.  The
    whole computation is a pure function of (traces, groups, cores), so
    results are byte-identical regardless of the [--domains] that actually
    executed the blocks — [cores] is a machine parameter, not an execution
    parameter. *)
module Smp : sig
  type smp_result = {
    p_cores : int;
    p_flops : int;
    p_accesses : int;
    p_instances : int;
    p_private : level_stat list;  (** first level, summed over cores *)
    p_shared : level_stat list;  (** the shared levels *)
    p_core_cycles : float list;  (** closed-form cycles per core *)
    p_cycles : float;  (** makespan: the slowest core *)
    p_mflops : float;  (** total flops over the makespan *)
  }

  val quantum_words : int
  (** Words each core's stream advances per interleave turn. *)

  val consume :
    machine:t ->
    quality:quality ->
    cores:int ->
    groups:int list list ->
    parts:Trace.t array ->
    task_flops:int array ->
    smp_result
  (** [groups] are the scheduler's wavefront levels (task ids, in task
      order); [parts.(t)] / [task_flops.(t)] the per-task trace and flop
      count.  @raise Invalid_argument on [cores <= 0] or a machine without
      cache levels. *)

  val pp : Format.formatter -> smp_result -> unit
end

val simulate :
  ?layouts:(string * Exec.Store.layout) list ->
  machine:t ->
  quality:quality ->
  Loopir.Ast.program ->
  params:(string * int) list ->
  init:(string -> int array -> float) ->
  result
(** The direct single-series path: interpret the program against a fresh
    store, feeding every element access straight through a fresh
    simulator instance, with no trace stored.  For any machine and
    quality it equals [consume ~machine ~quality (record p)]; use that
    pair instead when one execution should serve several series. *)

val pp_result : Format.formatter -> result -> unit
