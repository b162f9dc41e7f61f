(** The shackled daemon core: a {!Pipeline} wrapped behind the shackled/1
    wire protocol on a Unix domain socket, hardened to degrade gracefully
    under overload instead of falling over.

    One server holds ONE solver context ([Omega.Ctx.create ~cache:true]),
    optionally backed by a persistent {!Diskcache}, and a lazily-built
    {!Pipeline.t} per registered kernel.  Every request's legality and
    codegen queries charge to that shared context, so the memo + disk
    cache warm monotonically across clients, connections and restarts.

    Identical in-flight requests (equal {!Proto.request_key}) are
    batched: the first arrival computes, later arrivals block on the same
    entry and receive the byte-identical reply — one solve, N replies.

    Overload discipline (see {!handle}): requests carry per-op weights
    (tune ≫ legal); total admitted weight is capped at
    [cfg_queue_high], past which requests are shed with a structured
    [overloaded] error carrying a deterministic retry-after hint.  A
    request's optional [budget_ms] becomes an absolute deadline at
    receipt: expired requests are answered [deadline_exceeded] without
    compute, and in-flight work (solver queries, a tune's evaluation
    groups) is cut off at the deadline via {!Runner.with_deadline}.

    The request layer ({!handle}, {!Session}) is transport-free and runs
    in-process (the wire fuzzer drives it directly); {!serve} adds the
    socket, a select event loop, a bounded job queue and a pool of worker
    domains, with per-connection frame-assembly and write deadlines so a
    slowloris writer or stalled reader is evicted without blocking the
    accept loop or other sessions. *)

type resolve = {
  rv_kernels : unit -> (string * Loopir.Ast.program) list;
      (** the kernel registry; names are matched exactly *)
  rv_spec :
    kernel:string -> spec:string -> size:int -> Shackle.Spec.t option;
      (** symbolic spec lookup, e.g. ["ij"] at block size 32 for "matmul" *)
  rv_params : kernel:string -> n:int -> (string * int) list;
  rv_init : kernel:string -> n:int -> string -> int array -> float;
      (** the array initializer sim and tune requests pass on; both record
          addresses only ({!Machine.Model.simulate}, {!Tune.tune}), so it
          is never called, and stays for the resolvers that supply it *)
}
(** Injected name->object resolution.  The server library deliberately
    depends on neither [kernels] nor [experiments]; binaries supply the
    registry (see [bin/shackled.ml]), tests supply purpose-built ones. *)

type config = {
  cfg_domains : int;  (** worker domains computing requests (>= 1) *)
  cfg_fuel : int option;  (** per-query solver fuel *)
  cfg_timeout_ms : int option;  (** per-query solver deadline *)
  cfg_hold : (string -> unit) option;
      (** test hook: an in-flight batch leader calls this with its request
          key after registering and before computing — a test can park the
          leader until followers have attached, proving collapse
          deterministically.  [None] in production. *)
  cfg_queue_high : int;
      (** admission high-water mark: total weight of admitted, unfinished
          requests beyond which new work is shed with [overloaded].  An
          idle daemon always admits, however heavy the request. *)
  cfg_frame_timeout_ms : int;
      (** evict a connection that started a frame and did not finish it
          within this long — the slowloris defense *)
}

val default_config : config
(** 1 domain, no solver budgets, no hold hook; queue high-water 64,
    10 s frame timeout.  Every configuration also evicts a connection
    whose pending output could not be written for 5 s (the stalled-reader
    defense); a connection that merely sits idle is never evicted. *)

type t

val create : ?cache:Diskcache.t -> ?config:config -> resolve -> t
(** The solver context is created with the memo table on and, when
    [cache] is given, the disk cache as its backing store. *)

val solver : t -> Polyhedra.Omega.Ctx.t
val stats : t -> Stats.t

val shutdown : t -> unit
(** Flag the server as shutting down: subsequent requests are refused
    with [shutting_down] and {!serve}'s event loop exits after a bounded
    drain. *)

val shutting_down : t -> bool

val admitted_weight : t -> int
(** Total weight of currently admitted, unfinished requests — what
    admission compares against [cfg_queue_high]. *)

val handle : t -> Proto.request -> (Proto.reply, Proto.error) result
(** Decode-free entry point: admit (or shed with [overloaded] + a
    retry-after hint), start the deadline clock from the request's
    [budget_ms], batch, compute under that ambient deadline,
    account.  Never raises — handler exceptions become [failed] errors.
    A result that lands after the deadline is reported as
    [deadline_exceeded]. *)

val stats_json : t -> Observe.Json.t
(** The [stats] RPC body: schema {!Report.shackled_stats}, request accounting
    ({!Stats.to_json}, including the per-error-code breakdown and
    shed/evicted counters), the shared solver's counters
    ([Metrics.solver_to_json] + derived [solves]), and the disk cache's
    counters when one is attached. *)

(** Per-connection byte-level protocol state machine: feed raw bytes in,
    get reply bytes out.  Used by the socket event loop and, directly, by
    the wire fuzzer (no socket needed). *)
module Session : sig
  type server = t
  type t

  val create : server -> t

  val feed : t -> string -> string * [ `Keep | `Close ]
  (** Buffer the bytes, then decode and compute inline: process every
      complete frame and return (reply bytes, verdict) — the synchronous
      shape used by in-process callers (tests, the wire fuzzer).  Framing
      violations close; a [Shutdown]'s bye reply closes; everything else
      keeps the connection.  Never raises. *)
end

val serve : t -> socket:string -> unit
(** Bind [socket] and serve until {!shutdown} (typically via a [Shutdown]
    request).  One event-loop domain owns every fd (accept, frame
    assembly, reply writing, connection deadlines); requests past
    admission are queued and computed by [config.cfg_domains] worker
    domains, so a slow or hostile connection never blocks the loop —
    it is evicted at its configured deadline instead.  [Stats] and
    [Shutdown] are answered inline, never queued.  Removes the socket
    file on exit.  Blocks the calling domain. *)
