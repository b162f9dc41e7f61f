(** The multi-client load-replay harness: drive a live shackled daemon
    with N concurrent clients executing a seeded, recordable request
    trace, optionally through an in-process chaos proxy that injects the
    transport faults a hostile network produces — stalls, dribbled
    writes, mid-frame disconnects — and emit a schema-checked
    [server-load-report/1] ({!Report.server_load_report}).

    The harness is deliberately daemon-agnostic: it talks only the
    shackled/1 wire protocol through {!Client.connect_retry}, so the
    daemon under load may live in another process (the [shackled replay]
    subcommand kills it with SIGKILL mid-load and lets the retrying
    clients ride through the restart) or in a test domain.

    Everything here is deterministic given the seed — the trace, the
    client/request interleaving within each client, and the chaos
    schedule (the proxy's fault points depend on OS read chunking, so
    fault {e counts} vary run to run, but the replies never do). *)

(** {1 Trace} *)

type event = { ev_client : int; ev_req : Proto.request }
(** One trace step: client [ev_client] issues [ev_req].  Each client
    executes its own events in trace order; different clients run
    concurrently. *)

val gen_trace :
  seed:int -> clients:int -> requests:int -> pool:Proto.request list ->
  event list
(** [requests] events drawn uniformly (seeded) from [pool], each
    assigned a seeded client in [0, clients). *)

val save_trace : string -> event list -> unit
(** One JSON object per line: [{"client":K,"op":NAME,"payload":OBJ}]. *)

val load_trace : string -> (event list, string) result
(** Inverse of {!save_trace}.  [Error] names the file and why it could not
    be read, or the first bad line. *)

(** {1 Chaos proxy} *)

type proxy

val proxy_start :
  upstream:string -> socket:string -> seed:int -> chaos:bool -> proxy
(** Listen on [socket]; every accepted connection is forwarded
    byte-for-byte to the daemon at [upstream].  With [chaos], seeded
    faults are injected per chunk read: one chunk in 5 pauses 3 ms before
    it is passed on (the slow-network / slowloris shape), one in 3 is
    dribbled on in 1–3-byte writes (partial writes and torn frames), and
    one in 43 kills the connection instead (a mid-frame disconnect as the
    daemon sees it).  Without, the proxy is a clean transport.  Threads,
    not domains — connections are IO-bound. *)

val proxy_counts : proxy -> int * int * int
(** (stalls, partial-write chunks, forced disconnects) so far. *)

val proxy_stop : proxy -> unit
(** Shut down the listener and every live connection, join the threads
    (the last direction of each connection to finish closes it), then
    close the listener and unlink the proxy socket. *)

(** {1 Driving a trace} *)

type outcome = {
  o_completed : int;  (** requests that got a [Reply_ok] *)
  o_retries : int;  (** total client retries (overloaded + transport) *)
  o_shed : int;  (** requests still [overloaded] after all retries *)
  o_deadline_exceeded : int;  (** requests answered [deadline_exceeded] *)
  o_errors : (string * int) list;  (** final client-visible errors by code *)
  o_stats : Stats.t;  (** client-side per-op latency collector *)
}

val drive :
  ?stats:Stats.t -> socket:string -> seed:int -> clients:int -> event list ->
  outcome
(** Run the trace: one thread per client, each owning a
    {!Client.connect_retry} handle seeded from [seed] and its client id,
    executing its events in order and recording wall-clock latency per
    op.  Never raises on request failure — every error is counted.
    [stats] lets successive phases (cold, warm) accumulate into one
    latency collector. *)

(** {1 The report} *)

type phase = { ph_duration_ms : float; ph_disk_hits : int; ph_solves : int }
(** One cold/warm phase summary, extracted from the daemon's final
    stats snapshot. *)

val phase_of_stats : duration_ms:float -> Observe.Json.t -> phase option
(** Pull [solves] and disk-cache hits out of a [shackled-stats] JSON
    reply; [None] if the shape is foreign. *)

val report_json :
  seed:int -> clients:int -> requests:int -> outcome ->
  chaos:int * int * int -> cold:phase option -> warm:phase option ->
  Observe.Json.t
(** Assemble the [server-load-report/1] object — it validates under
    {!Report.check}. *)
