(** A small Domain-based work pool for embarrassingly parallel experiment
    points, and the one deadline every layer honours.

    Every simulation point of the evaluation harness is an independent
    (program, size, quality) triple, so the experiment layer fans them out
    across OCaml 5 domains.  The pool hands out work by an atomic index and
    writes each result back into its input slot, so result order is always
    the input order regardless of how the scheduler interleaves domains.

    Workers must be self-contained: a task must build any mutable state it
    needs (simulator instances, caches, stores) itself rather than closing
    over shared mutable structures. *)

(** {2 The ambient deadline}

    Stopping on time is cooperative, because OCaml domains cannot be
    killed: each domain has one ambient wall-clock deadline, and the code
    running under it polls.  The solver caps every query by it (a query
    past it answers [Unknown "deadline"]), record/replay and the fuzz
    oracle call {!check} between work items, {!map_outcomes} installs one
    per attempt, and the daemon installs a request's.  Code that never
    polls runs to completion. *)

exception Expired
(** Raised by {!check}; {!map_outcomes} turns it into [Timed_out]. *)

val with_deadline : until:float -> (unit -> 'a) -> 'a
(** [with_deadline ~until f] runs [f] with the current domain's ambient
    deadline set to the absolute time [until] (seconds, on the
    [Unix.gettimeofday] clock), or kept if the current one is earlier.
    The previous deadline comes back when [f] returns or raises. *)

val deadline : unit -> float
(** The current domain's ambient deadline ([infinity] when none). *)

val check : unit -> unit
(** Raise {!Expired} once the ambient deadline has passed. *)

(** {2 Pools} *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] is [List.map f xs] computed by up to [domains]
    domains (the calling domain included).  Results are returned in input
    order.  [~domains:1] (the default) runs sequentially in the calling
    domain with no spawns at all — the safe fallback for single-core
    machines or debugging.

    This is {!map_outcomes} with no timeout and no retries: every task
    runs, and if any raised, the lowest raising index's exception is
    re-raised (with its backtrace) after all domains have joined; a task
    that timed out under the caller's deadline re-raises {!Expired}. *)

(** {2 Supervised execution}

    [map] turns one raising task into an exception for the whole batch.
    Campaign workloads (fuzzing, autotuning) instead want per-task
    outcomes — a pathological item is reported and the batch completes. *)

type 'b outcome =
  | Ok of 'b
  | Failed of exn * Printexc.raw_backtrace
      (** the task's last attempt raised; the backtrace is the raise site's *)
  | Timed_out  (** the task raised {!Expired}: its deadline had passed *)

val map_outcomes :
  ?domains:int ->
  ?timeout_ms:int ->
  ?retries:int ->
  ?on_outcome:(int -> 'b outcome -> unit) ->
  ('a -> 'b) ->
  'a list ->
  'b outcome list
(** [map_outcomes ~domains ~timeout_ms ~retries f xs] runs [f x] for every
    item across the pool and returns one {!outcome} per item, in input
    order regardless of domain count or scheduling — exceptions are
    captured per-slot, never re-raised.

    Each attempt runs under {!with_deadline}: [timeout_ms] from the
    attempt's start, or the caller's deadline if that is earlier (the
    caller's alone when [timeout_ms] is omitted).  Spawned workers start
    from the caller's deadline too.  An attempt that raises {!Expired} is
    [Timed_out], terminally — a deadline is not a transient fault.  Any
    other exception is retried up to [retries] (default 0) times with
    deterministic jittered exponential backoff starting at 20 ms; the last
    attempt's exception and backtrace become [Failed].

    [on_outcome i o] is invoked under an internal mutex as each item
    completes (completion order, not input order) — the hook checkpoint
    writers use.  It must not raise. *)
