(** Chunked memory-access traces: record one interpreter execution, replay
    it against many memory-hierarchy configurations.

    An access is packed into one OCaml int: the element address shifted
    left by one, with the write bit in the low bit.  Accesses are buffered
    into fixed-size [int array] chunks; a {!recorder} retains every
    finished chunk, and {!finish} returns a {!t} that can be replayed any
    number of times (the record-once / replay-many pipeline of the
    experiment harness).

    The recorder is single-domain mutable state; a finished {!t} is
    immutable and may be shared read-only across domains. *)

type consumer = int array -> int -> unit
(** [consumer buf len] receives one chunk: packed words [buf.(0 .. len-1)].
    The array belongs to the trace — consumers must not mutate it. *)

(** {2 Packed words} *)

val word : write:bool -> addr:int -> int
(** [(addr lsl 1) lor write-bit].  Addresses must be non-negative. *)

val word_addr : int -> int
val word_is_write : int -> bool

(** {2 Recording} *)

type recorder

val default_chunk_words : int

val create_recorder : ?chunk_words:int -> unit -> recorder
(** [chunk_words] defaults to {!default_chunk_words}. *)

val emit : recorder -> write:bool -> addr:int -> unit
(** Append one access, starting a fresh chunk when the current one is
    full. *)

val emit_word : recorder -> int -> unit
(** Append one already-packed word (see {!word}). *)

type t
(** A finished, immutable, replayable trace. *)

val finish : recorder -> t
(** Store the partial tail chunk and seal the trace. *)

(** {2 Replay and accounting} *)

val length : t -> int
(** Number of recorded accesses. *)

val num_chunks : t -> int
(** Chunks the trace is stored in. *)

val bytes : t -> int
(** Bytes held by the stored chunks (peak trace memory). *)

val iter_chunks : t -> consumer -> unit
(** Feed every stored chunk to [f], in record order. *)

val iter : t -> (write:bool -> addr:int -> unit) -> unit
(** Per-access replay, unpacking each word.  Convenience for tests; the
    hot path is {!iter_chunks}. *)

val concat : ?chunk_words:int -> t list -> t
(** Re-chunked concatenation: byte-identical (words, chunk boundaries,
    accounting) to recording the parts' streams back-to-back into one
    recorder with the same [chunk_words].  The deterministic merge of
    per-task traces from a parallel execution. *)

val equal : t -> t -> bool
(** Stored streams are word-for-word identical (chunking ignored). *)

(** {2 The interpreter-facing sink} *)

(** What the interpreter should do with the access stream.  [No_trace] is
    the fast path (no per-access work compiled in); [Callback] feeds each
    access to a closure (the direct single-series simulation path);
    [Record] feeds a recorder. *)
type sink =
  | No_trace
  | Callback of (write:bool -> addr:int -> unit)
  | Record of recorder
