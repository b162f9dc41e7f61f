(** A small Domain-based work pool for embarrassingly parallel experiment
    points.

    Every simulation point of the evaluation harness is an independent
    (program, size, quality) triple, so the experiment layer fans them out
    across OCaml 5 domains.  The pool hands out work by an atomic index and
    writes each result back into its input slot, so result order is always
    the input order regardless of how the scheduler interleaves domains.

    Workers must be self-contained: a task must build any mutable state it
    needs (simulator instances, caches, stores) itself rather than closing
    over shared mutable structures. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] is [List.map f xs] computed by up to [domains]
    domains (the calling domain included).  Results are returned in input
    order.  [~domains:1] (the default) runs sequentially in the calling
    domain with no spawns at all — the safe fallback for single-core
    machines or debugging.

    This is {!map_outcomes} with no deadline and no retries: every task
    runs, and if any raised, the lowest raising index's exception is
    re-raised (with its backtrace) after all domains have joined. *)

(** {2 Supervised execution}

    [map] turns one raising task into an exception for the whole batch.
    Campaign workloads (fuzzing, autotuning) instead want per-task
    outcomes — a pathological item is reported and the batch completes.
    Cancellation is cooperative because OCaml domains cannot be killed:
    each attempt gets a {!Token.t} which the task polls, directly
    ({!Token.check}) or by wiring {!Token.cancelled} into a solver
    context's cancel hook. *)

module Token : sig
  type t

  exception Expired
  (** Raised by {!check}; {!map_outcomes} turns it into [Timed_out]. *)

  val cancelled : t -> bool
  (** True once cancelled or past the deadline — the polling hook to thread
      into [Omega.Ctx.create ~cancel]. *)

  val check : t -> unit
  (** Raise {!Expired} if {!cancelled}. *)
end

type 'b outcome =
  | Ok of 'b
  | Failed of exn * Printexc.raw_backtrace
      (** the task's last attempt raised; the backtrace is the raise site's *)
  | Timed_out  (** the task observed its token expired and bailed out *)

val map_outcomes :
  ?domains:int ->
  ?timeout_ms:int ->
  ?retries:int ->
  ?backoff_ms:int ->
  ?on_outcome:(int -> 'b outcome -> unit) ->
  (Token.t -> 'a -> 'b) ->
  'a list ->
  'b outcome list
(** [map_outcomes ~domains ~timeout_ms ~retries f xs] runs [f token x] for
    every item across the pool and returns one {!outcome} per item, in
    input order regardless of domain count or scheduling — exceptions are
    captured per-slot, never re-raised.

    Each attempt receives a fresh token carrying the [timeout_ms] deadline
    (no deadline when omitted).  An attempt that raises [Token.Expired] is
    [Timed_out], terminally — a deadline is not a transient fault.  Any
    other exception is retried up to [retries] (default 0) times with
    deterministic jittered exponential backoff starting at [backoff_ms]
    (default 20); the last attempt's exception and backtrace become
    [Failed].

    [on_outcome i o] is invoked under an internal mutex as each item
    completes (completion order, not input order) — the hook checkpoint
    writers use.  It must not raise. *)
