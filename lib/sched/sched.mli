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

    Each worker runs a task twice: on the interpreter's value path, which
    computes the elements, and on its address-only path, which records
    the task's access trace.  The deterministic merge ({!Trace.concat} in
    task order) is byte-identical to a sequential recording of the same
    variant ({!Machine.Model.record}) for any domain count, which is what
    [test_sched] and the fuzz [Par] oracle layer check. *)

type plan

val plan :
  Pipeline.t ->
  spec:Shackle.Spec.t option ->
  params:(string * int) list ->
  plan
(** Build the block-task DAG for [Pipeline.variant pipe spec] at concrete
    [params].  The spec must be legal: a legal shackle visits every
    dependence's source block no later than its destination block, which
    is what makes the DAG acyclic and forward-only.  [None], a bandless
    variant, a grid of more than 2048 tasks or a delta box of more than
    4096 points all degrade to a safe single-task or chain plan. *)

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
  x_recording : Machine.Model.recording;
      (** deterministic merge of the per-task traces, task order *)
  x_parts : Trace.t array;  (** per-task traces *)
  x_task_flops : int array;
  x_domains : int;  (** workers that ran the levels *)
  x_stalls : int;  (** barrier waits — dynamic, varies run to run *)
}

val exec :
  ?layouts:(string * Exec.Store.layout) list ->
  ?domains:int ->
  ?chunk_words:int ->
  plan ->
  init:(string -> int array -> float) ->
  result
(** Execute the plan level by level over [domains] workers (default 1:
    in the calling domain, no spawns), capped at {!max_width}, recording
    every task's access trace.  [x_recording] merges them in task order:
    the drop-in parallel replacement for [Pipeline.record], byte-identical
    to the sequential recording.  The store, flop count, per-task traces
    and merged recording are bit-identical for every [domains]; only
    [x_stalls] varies.  A worker exception aborts the run and is re-raised
    (with its backtrace) after all domains join. *)

val smp : cores:int -> plan -> result -> Machine.Model.result
(** Shared-L2 multicore replay of an executed plan ({!Machine.Model.Smp})
    on the [two_level] machine at [tuned] quality: private first-level
    caches per virtual core, the shared L2 below, deterministic
    round-robin task assignment and stream interleave per level.  Its
    [r_cycles] is the makespan. *)
