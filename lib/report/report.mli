(** One home for every JSON report schema the tools emit.

    Every artifact this repo writes — tune reports, fuzz campaign reports
    and checkpoint metas, daemon stats, disk-cache reports, bounds
    reports, bench trajectories — carries a schema tag, and every
    [--check-json] flag used to carry its own hand-rolled validator next
    to the writer.  This module is the single registry: one {!version}
    reader and one {!check} that validates a document against the
    current schema of its family.  The writers stay where they are, next
    to the types they serialize, and stamp their tag from the constants
    below; what is shared is the contract.

    Tagging convention: every report is an object with either a
    ["schema"] string field ([<family>/<version>], e.g. [tune-report/4])
    or — for bench trajectories, which predate the convention — an
    integer ["schema_version"], surfaced here as the synthetic tag
    [bench/1]. *)

val tune_report : string
(** ["tune-report/4"] — [shacklec tune --json]. *)

val fuzz_report : string
(** ["fuzz-report/8"] — [fuzz --json]. *)

val fuzz_checkpoint : string
(** ["fuzz-checkpoint/1"] — first line of a [fuzz --checkpoint] file. *)

val shackled_stats : string
(** ["shackled-stats/2"] — the daemon's stats RPC / [shackled report --socket]. *)

val shackled_cache_report : string
(** ["shackled-cache-report/1"] — [shackled report --cache-dir]. *)

val bounds_report : string
(** ["bounds-report/1"] — [shacklec bounds --json]. *)

val server_load_report : string
(** ["server-load-report/1"] — [shackled replay --json]: per-op
    client-observed latency percentiles (p50/p99/p99.9), shed / retry /
    deadline-exceeded / chaos counts, and a cold-vs-warm phase
    comparison. *)

val bench : string
(** ["bench/1"] — bench trajectory envelopes ([BENCH_*.json]). *)

val version : Observe.Json.t -> (string, string) result
(** The document's schema tag, as written: the ["schema"] string, or
    [bench/N] synthesized from an integer ["schema_version"].  [Error]
    when neither field is present — the document is not a report. *)

val check : Observe.Json.t -> (string, string) result
(** Structurally validate against the current schema for the document's
    family.  Returns the tag on success, so callers can both report what
    they validated and gate on the family they expect.  Only current
    versions validate: any other tag, an older version of a known family
    included, is [Error "unknown report schema ..."]. *)
