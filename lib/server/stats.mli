(** Daemon-side request accounting: per-opcode counts and latency
    percentiles, protocol-error and batch-collapse counters, a per-error-code
    breakdown, and the overload counters (shed, evicted).

    Latencies keep up to a fixed number of samples per opcode (plus exact
    count/sum/max), so tail estimates stay O(1) memory under sustained
    load.  All updates are mutex-protected — worker domains share one
    collector. *)

type t

val create : unit -> t

val record : t -> op:string -> seconds:float -> unit

val incr_error : t -> code:string -> unit
(** Count a structured error reply under its code.  An [overloaded] code
    also bumps the shed counter. *)

val incr_collapses : t -> unit
(** Requests answered by attaching to an identical in-flight computation
    (one solve, N replies). *)

val incr_connections : t -> unit

val incr_evicted : t -> unit
(** Connections forcibly closed for violating a read/write deadline or
    idle timeout. *)

val collapses : t -> int
val shed : t -> int
val evicted : t -> int

val to_json : t -> Observe.Json.t
(** Per-op objects: [count], [p50_ms], [p90_ms], [p99_ms], [p999_ms],
    [max_ms], [mean_ms]; plus top-level totals, [error_codes],
    [shed] and [evicted]. *)
