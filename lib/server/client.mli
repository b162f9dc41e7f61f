(** Blocking shackled/1 client over a Unix domain socket, used by
    [shacklec --connect], [shackled report], [shackled replay] and the
    wire-fuzz burst behind [shackled burst].

    One outstanding request at a time per client; request ids are
    assigned monotonically and checked on the reply. *)

type t

val connect : string -> t
(** @raise Unix.Unix_error when the socket is absent or refuses. *)

val close : t -> unit

val rpc : t -> Proto.request -> (Proto.reply, Proto.error) result
(** Send one request and wait for its reply.  Transport failures
    (connection closed, unparseable reply) come back as a [transport]
    error, not an exception. *)

val exchange : t -> string -> replies:int -> (Wire.raw list, string) result
(** [exchange t bytes ~replies] writes [bytes] as they are — one frame,
    several, a fragment or garbage — then reads exactly [replies] reply
    frames: the wire-fuzz burst's primitive, which works out [replies]
    from the bytes it sends.  [Error] means the connection failed before
    they all arrived. *)

type retry
(** A self-healing client: owns (and transparently re-establishes) its
    connection, and retries [overloaded] and [transport] errors with
    seeded exponential backoff + full jitter.  Retrying is safe because
    requests are idempotent under {!Proto.request_key}.  Deterministic:
    a fixed (seed, request trace) replays the same sleep schedule. *)

val connect_retry : socket:string -> seed:int -> retry
(** Lazy — no connection is opened until the first {!rpc_retry}.  Each
    request gets at most 6 tries; attempt [k] sleeps a uniform draw from
    [0, 25 * 2^k] ms (capped at 2 s), or the server's [retry_after_ms]
    hint when that is larger. *)

val rpc_retry : retry -> Proto.request -> (Proto.reply, Proto.error) result
(** Like {!rpc}, but sheds ([overloaded]) and transport faults
    (connection refused / reset / closed — including a daemon restart
    window) are retried with backoff; the last error is returned once
    attempts are exhausted.  Non-retryable errors return immediately. *)

val retries : retry -> int
(** Total retries performed by this handle (for load reports). *)

val close_retry : retry -> unit
