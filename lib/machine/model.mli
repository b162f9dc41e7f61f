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
(** A 16 KB 4-way L1 in front of a 256 KB 8-way L2, both with 128-byte
    lines: the "deeper memory hierarchy" of Section 6.3 / Figure 10, with
    the geometry scaled down for simulation-friendly problem sizes. *)

val untuned : quality
val tuned : quality

val machines : (string * t) list
(** Every machine model, keyed by its [m_name] — the one name table
    behind the daemon's [Sim] request and [shacklec --machine]: the two
    above, and ["small-cache"], a 1 KB fully associative single-level
    cache of 128 single-element lines with sp2-like cost ratios.  On it,
    capacity effects — and with them the analytic communication lower
    bounds of {!Bounds} — become visible at problem sizes small enough for
    quick simulation, which is what the lower-bound pruning tests run
    against. *)

val qualities : (string * quality) list
(** Both qualities, keyed by [q_name] ([shacklec --quality], [Sim]). *)

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
(** One simulation's counters and costs.  Each simulation runs on its own
    cache hierarchy and counters, sharing nothing with any other, so
    parallel runners may simulate on several domains at once.  Replay only
    counts; cycle costs are folded in once, in closed form, when the result
    is built: cycles = flops x flop_cycles + Σ level hits x hit_cycles +
    memory misses x mem_cycles + instances x overhead.  Every cost constant
    is integer or dyadic, so this is bit-identical to per-access
    accumulation. *)

(** {2 Record once, replay many} *)

type walks
(** The hierarchy walks a recording has had, memoized for {!consume}. *)

type recording = private {
  rec_trace : Trace.t;
  rec_flops : int;
  rec_walks : walks;
}
(** The access stream of one interpreter execution.  Recording does not
    depend on machine or quality (forwarding is derived at replay), so
    one recording serves every (machine x quality) series. *)

val recording : Trace.t -> flops:int -> recording
(** A recording of a trace recorded elsewhere (the block scheduler's
    merge of its tasks' address-only traces), with no walk memoized
    yet. *)

val record :
  ?layouts:(string * Exec.Store.layout) list ->
  ?chunk_words:int ->
  Loopir.Ast.program ->
  params:(string * int) list ->
  init:(string -> int array -> float) ->
  recording
(** Execute the program once on the interpreter's address-only path
    ({!Exec.Interp.addresses}), capturing the full access trace in chunks
    of [chunk_words] and the flops the value path counts.  [init] is not
    evaluated: no element value reaches the trace.  It stays in the
    signature for callers that pass it.
    @raise Invalid_argument as {!Exec.Store.plan} and {!Exec.Interp.run}
    would. *)

val consume : machine:t -> quality:quality -> recording -> result
(** Replay a recording into a fresh simulator instance.  For any machine
    and quality, [consume ~machine ~quality (record p)] produces exactly
    the same result as [simulate ~machine ~quality p].

    The hierarchy is walked once per recording and geometry (element size
    and every level's cache configuration): the walk runs without
    forwarding, counts the words whose address repeats the previous
    word's, and is memoized on the recording.  Every quality derives from
    it: forwarding drops exactly those repeats, each a first-level hit on
    the most recently used way that moves no tag, so the forwarding
    result is the walk's minus the repeats in total accesses and
    first-level accesses and hits, with every miss, eviction and deeper
    level equal.  The memo is safe to share across domains. *)

(** A P-core machine built from a uniprocessor spec: every core gets a
    private copy of the first cache level; the remaining levels and memory
    are shared.  Replay consumes the per-task traces of a scheduled
    parallel execution ({!Sched} in lib/sched): within each wavefront
    group, tasks go to virtual cores round-robin in task order and the
    per-core streams are interleaved in 64-word quanta, core 0 first.  The
    whole computation is a pure function of (traces, groups, cores), so
    results are byte-identical regardless of the [--domains] that actually
    executed the blocks — [cores] is a machine parameter, not an execution
    parameter.

    It is built from {!consume}'s parts: each core walks its quanta with
    its own simulator instance over its private first level and the shared
    caches, and its counters (of a shared level, what that level gained
    during the core's quanta) go through the same forwarding derivation
    and closed-form cycle formula. *)
module Smp : sig
  val consume :
    machine:t ->
    quality:quality ->
    cores:int ->
    groups:int list list ->
    parts:Trace.t array ->
    task_flops:int array ->
    result
  (** [groups] are the scheduler's wavefront levels (task ids, in task
      order); [parts.(t)] / [task_flops.(t)] the per-task trace and flop
      count.  The level stats, accesses, instances and flops are summed
      over the cores; [r_cycles] is the makespan (the slowest core's
      cycles) and [r_mflops] the total flops over it.  @raise
      Invalid_argument on [cores <= 0] or a machine without cache
      levels. *)
end

val simulate :
  ?layouts:(string * Exec.Store.layout) list ->
  machine:t ->
  quality:quality ->
  Loopir.Ast.program ->
  params:(string * int) list ->
  init:(string -> int array -> float) ->
  result
(** The direct single-series path: run the address-only interpreter
    against a layout-only store, handing every 256-word chunk straight to
    a fresh simulator instance, with no trace stored.  The walk is
    {!consume}'s, without forwarding, and a forwarding quality's result is
    derived from it the same way.  For any machine and quality it equals
    [consume ~machine ~quality (record p)]; use that pair instead when one
    execution should serve several series.  [init] is not evaluated, as
    in {!record}. *)

val pp_result : Format.formatter -> result -> unit
