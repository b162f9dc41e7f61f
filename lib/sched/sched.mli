(** Dependence-aware parallel execution of shackled blocks.

    The generated blocked code's outermost loops enumerate block
    coordinates; each instance of that coordinate band is one {e block
    task}.  A plan peels the band, enumerates the concrete task grid for
    one parameter binding, and builds the block-task DAG by probing the
    legality machinery's block-pair systems ({!Shackle.Legality.block_pair_systems})
    for the feasible per-coordinate range of [zd - zs].  The per-coordinate
    box over-approximates the true delta set, so the induced edges only
    ever add ordering — correctness never depends on the solver being
    precise, and [Unknown] or an oversized box degrades to the sequential
    chain.

    Execution is level-synchronous: a longest-path layering of the DAG
    puts every edge from a lower level to a higher one, so the levels run
    in order, separated by a barrier, and the tasks of one level are handed
    to the workers by an atomic index.  The same levels are the groups the
    shared-L2 multicore replay ({!smp}) interleaves.

    Each task records its own access trace; the deterministic merge
    ({!Trace.concat} in task order) is byte-identical to a sequential
    recording of the same variant for any domain count, which is what
    [test_sched] and the fuzz [Par] oracle layer check. *)

type plan

val plan :
  ?max_tasks:int ->
  ?max_box:int ->
  Pipeline.t ->
  spec:Shackle.Spec.t option ->
  params:(string * int) list ->
  plan
(** Build the block-task DAG for [Pipeline.variant pipe spec] at concrete
    [params].  The spec must be legal: a legal shackle visits every
    dependence's source block no later than its destination block, which
    is what makes the DAG acyclic and forward-only.  [None], a bandless
    variant, a grid larger than [max_tasks] (default 2048) or a delta box
    larger than [max_box] (default 4096) all degrade to a safe single-task
    or chain plan. *)

val tasks : plan -> int
val edges : plan -> int
val levels : plan -> int list list
(** Longest-path layering: level -> task ids, ascending.  Every edge runs
    from a lower level to a higher one. *)

val max_width : plan -> int
val serialized : plan -> bool
(** True when the conservative chain fallback replaced the real DAG. *)

type result = {
  x_store : Exec.Store.t;
  x_flops : int;
  x_trace : Trace.t option;
      (** deterministic merge of the per-task traces, task order *)
  x_parts : Trace.t array;  (** per-task traces; [[||]] when untraced *)
  x_task_flops : int array;
  x_domains : int;  (** workers that ran the levels *)
  x_stalls : int;  (** barrier waits — dynamic, varies run to run *)
}

val exec :
  ?layouts:(string * Exec.Store.layout) list ->
  ?domains:int ->
  ?trace:bool ->
  ?chunk_words:int ->
  plan ->
  init:(string -> int array -> float) ->
  result
(** Execute the plan level by level over [domains] workers (default 1:
    in the calling domain, no spawns), capped at {!max_width}.  The store,
    flop count, per-task traces and merged trace are bit-identical for
    every [domains]; only [x_stalls] varies.  A worker exception aborts
    the run and is re-raised (with its backtrace) after all domains
    join. *)

val record :
  ?layouts:(string * Exec.Store.layout) list ->
  ?domains:int ->
  ?chunk_words:int ->
  plan ->
  init:(string -> int array -> float) ->
  Machine.Model.recording * result
(** [exec ~trace:true] packaged as a replayable recording — the drop-in
    parallel replacement for [Pipeline.record], byte-identical to it. *)

val smp :
  ?machine:Machine.Model.t ->
  ?quality:Machine.Model.quality ->
  cores:int ->
  plan ->
  result ->
  Machine.Model.Smp.smp_result
(** Shared-L2 multicore replay of a traced result ({!Machine.Model.Smp}):
    private first-level caches per virtual core, shared levels below,
    deterministic round-robin task assignment and stream interleave per
    level.  [machine] defaults to [two_level], [quality] to [tuned]. *)
