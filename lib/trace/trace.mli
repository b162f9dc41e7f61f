(** Chunked memory-access traces: record one interpreter execution, replay
    it against many memory-hierarchy configurations.

    An access is packed into one OCaml int: the element address shifted
    left by one, with the write bit in the low bit.  Accesses are buffered
    into fixed-size [int array] chunks; a {!recorder} retains every
    finished chunk, and {!finish} returns a {!t} that can be replayed any
    number of times (the record-once / replay-many pipeline of the
    experiment harness).

    A streaming recorder ({!streaming}) stores nothing: it hands each
    full chunk to a consumer and reuses it, so a single-series simulation
    walks the cache hierarchy as the interpreter runs, in chunks of the
    same boundaries a stored trace would have.

    The recorder is single-domain mutable state; a finished {!t} is
    immutable and may be shared read-only across domains. *)

type consumer = int array -> int -> unit
(** [consumer buf len] receives one chunk: packed words [buf.(0 .. len-1)].
    The array belongs to the trace or recorder — consumers must not mutate
    it, and must not keep it past the call (a streaming recorder writes
    its next words into the same array). *)

(** {2 Packed words} *)

val word : write:bool -> addr:int -> int
(** [(addr lsl 1) lor write-bit].  Addresses must be non-negative. *)

val word_addr : int -> int
val word_is_write : int -> bool

(** {2 Recording} *)

type recorder = {
  chunk_words : int;
  mutable buf : int array;
      (** the current chunk, [chunk_words] long, or [[||]] while the
          recorder holds none *)
  mutable len : int;  (** words used in [buf] *)
  mutable stored : (int array * int) list;
      (** finished chunks, most recent first *)
  stream : consumer option;
      (** [Some f] for a {!streaming} recorder, which hands each chunk to
          [f] instead of storing it *)
}
(** The fields are public so that a loop in another module can append a
    word without a call: when [len = Array.length buf] call {!flush},
    then write [buf.(len)] and add one to [len].  The interpreter's
    address-only path does exactly this; outside this module, nothing else
    may write the fields.  A recorder allocates its first chunk when its
    first word arrives, not when it is created. *)

val default_chunk_words : int
(** 8,192 words: a 64 KB chunk on a 64-bit machine.  A trace of [n]
    words holds [ceil (n / chunk_words)] chunks, the last one partly
    used. *)

val create_recorder : ?chunk_words:int -> unit -> recorder
(** [chunk_words] defaults to {!default_chunk_words}.  The recorder holds
    no chunk yet. *)

val streaming : ?chunk_words:int -> consumer -> recorder
(** A recorder that stores no trace: each full chunk goes to the consumer,
    and the recorder then writes its next words into the same chunk.  Its
    {!finish} hands the consumer the partial tail and seals an empty
    trace.  The consumer sees the words and chunk boundaries a
    {!create_recorder} with the same [chunk_words] would have stored. *)

val flush : recorder -> unit
(** Make room for the next word: store the current chunk (hand it to the
    consumer, for a streaming recorder), if it holds any word, and
    allocate a fresh one (a streaming recorder reuses the one it holds).
    Call it only when [len = Array.length buf], that is, when the current
    chunk is full or there is none. *)

val emit : recorder -> write:bool -> addr:int -> unit
(** Append one access, starting a fresh chunk when the current one is
    full. *)

type t
(** A finished, immutable, replayable trace. *)

val finish : recorder -> t
(** Store the partial tail chunk (a streaming recorder hands it to its
    consumer), if it holds any word, and seal the trace.  Allocates no
    chunk: the recorder is left holding none, and
    what it records next starts a new trace in a chunk allocated when its
    first word arrives.  A [finish] with no word since the last one seals
    an empty trace. *)

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
