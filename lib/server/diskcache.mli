(** The persistent, content-addressed legality cache behind the shackled
    daemon — the on-disk promotion of the in-process {!Polyhedra.Omega.Ctx}
    memo table.

    One append-only file ([legality.cache] in the cache directory) holds
    fixed-size records, each the 16-byte digest of a constraint system
    ({!Polyhedra.Omega.digest}, the key the solver's memo uses) plus its
    exact verdict, guarded by a CRC32:

    {v
      file   := header record*
      header := "shackle-cache/2\n"            (16 bytes)
      record := 0xA5 digest[16] verdict crc32  (22 bytes)
                verdict: 0x00 = unsat, 0x01 = sat
                crc32:   big-endian, over the first 18 bytes
    v}

    Appends are fsynced, so a record once observed survives power loss.
    The loader is self-healing: it accepts every record whose tag and CRC
    check out, resynchronizing past spans that don't.  A span shorter than
    one record at end-of-file is a torn append (a kill -9 mid-write) and
    is silently truncated; any other bad span is corruption and is moved
    to a [.quarantine] sidecar — serving continues on the surviving
    records, byte-equivalent to a never-corrupted file.  On-disk
    duplicates (two processes appending the same digest) are deduplicated
    on load and the file rewritten.  Because records are keyed by content
    digest, processes sharing a directory (daemon restarts, parallel CI
    runs) read each other's verdicts. *)

type t

val filename : string
(** ["legality.cache"]. *)

val record_bytes : int
(** 22 — the fixed record size, exposed so tests can truncate at every
    byte boundary of the last record. *)

val open_dir : string -> t
(** Open (creating directory and file as needed) the cache under this
    directory, load all valid records, quarantine corrupt spans,
    deduplicate, and truncate any torn tail.  The file has no size cap
    and is never rotated: it grows by one record per new verdict until
    {!compact} rewrites it.
    @raise Failure if the file exists but its header is not
    ["shackle-cache/2\n"] — a foreign file, a [shackle-cache/1] file
    (keyed by digests of an older text rendering, which can never hit)
    included, is never silently clobbered. *)

val close : t -> unit

val file : t -> string
(** Path of the underlying cache file. *)

val quarantine_file : t -> string
(** Path of the quarantine sidecar ([file ^ ".quarantine"]); only exists
    once corruption has been seen. *)

val find : t -> string -> bool option
(** Look up a 16-byte system digest; counts a hit or a miss.
    @raise Invalid_argument on a key of any other length. *)

val add : t -> string -> bool -> unit
(** Append the verdict for a 16-byte digest (no-op if it is already
    present) and fsync.
    @raise Invalid_argument on a key of any other length. *)

val compact : t -> int * int
(** Rewrite the file as header + one record per live entry in stable
    first-seen order (write-temp, fsync, rename), and return
    [(bytes_before, bytes_after)].  Deterministic and idempotent:
    compacting a compacted file rewrites the identical bytes.  Safe while
    serving — lookups and appends block only for the rewrite. *)

val backing : t -> Polyhedra.Omega.backing
(** The {!find}/{!add} pair packaged as a solver-context backing store. *)

val entries : t -> int
(** Distinct digests currently loaded. *)

val bytes_on_disk : t -> int

val hits : t -> int

val misses : t -> int

val appended : t -> int
(** Records written by this handle. *)

val dropped_bytes : t -> int
(** Bytes discarded at {!open_dir}: torn-tail bytes plus quarantined
    bytes (0 on a clean file). *)

val quarantined_bytes : t -> int
(** The subset of {!dropped_bytes} preserved in the sidecar. *)

val quarantined_spans : t -> int
(** Corrupt spans moved to the sidecar at {!open_dir}. *)

val add_torn : t -> string -> bool -> keep:int -> unit
(** Crash-injection hook for recovery tests: append only the first [keep]
    bytes of the record for a 16-byte digest
    (0 <= keep < {!record_bytes}), fsync, and mark the
    handle closed as a kill -9 mid-write would.  The next {!open_dir} must
    drop exactly the torn tail. *)
