(** One home for every JSON report schema the tools emit, and the one
    path by which report files are written and read.

    Every artifact this repo writes — tune reports, fuzz campaign reports
    and checkpoint metas, daemon stats, disk-cache reports, bounds
    reports, bench trajectories — is an object whose ["schema"] string
    field carries its tag, [<family>/<version>] (e.g. [tune-report/6]).
    This module is the single registry: one {!check} that reads a
    document's tag and validates the document against the current schema
    of its family.  The documents are built next to the types they
    serialize and stamp their tag from the constants below; every
    [--json] flag writes through {!write} and every [--check-json] reads
    through {!read}, pinning the family it expects. *)

val tune_report : string
(** ["tune-report/6"] — [shacklec tune --json]. *)

val fuzz_report : string
(** ["fuzz-report/8"] — [fuzz --json]. *)

val fuzz_checkpoint : string
(** ["fuzz-checkpoint/2"] — first line of a [fuzz --checkpoint] file. *)

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
(** ["bench/1"] — bench trajectory envelopes ([BENCH_*.json]): [bench
    --json]. *)

val check : Observe.Json.t -> (string, string) result
(** Structurally validate against the current schema for the document's
    family.  Returns the tag on success, so callers can both report what
    they validated and gate on the family they expect.  Only current
    versions validate: any other tag, an older version of a known family
    included, is [Error "unknown report schema ..."]. *)

val write : string -> Observe.Json.t -> (unit, string) result
(** [write path doc] {!check}s [doc], then writes it to [path] as pretty
    JSON plus a newline.  An invalid document is refused and nothing is
    written; [Error] names the file and the first schema error, or
    carries the system's message when the file cannot be written. *)

val read : string -> (string * Observe.Json.t, string) result
(** [read path] reads, parses and {!check}s the file, and returns its tag
    and document.  [Error] names the file: it is missing or unreadable,
    not JSON, or fails its schema. *)
