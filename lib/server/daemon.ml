(* The daemon core.  Three layers, each testable without the one below:
   [handle] (typed request -> typed reply, with admission control,
   deadline propagation and in-flight batching), [Session] (bytes ->
   bytes, the per-connection protocol state machine), and [serve] (Unix
   socket + a select event loop + worker domains pulling from a bounded
   job queue).

   Overload discipline: every solver-driven request carries a weight
   (tune >> legal); the total admitted weight is capped at
   [cfg_queue_high], past which requests are shed with a structured
   [overloaded] error carrying a retry-after hint — the daemon degrades
   by answering fast instead of queueing unboundedly.  A request's
   optional [budget_ms] becomes an absolute deadline at receipt:
   expired-in-queue requests are answered [deadline_exceeded] without
   compute, and in-flight solver work is cut off through the ambient
   domain-local deadline ({!Polyhedra.Omega.with_deadline}). *)

module Json = Observe.Json
module Metrics = Observe.Metrics
module Model = Machine.Model
module Omega = Polyhedra.Omega

type resolve = {
  rv_kernels : unit -> (string * Loopir.Ast.program) list;
  rv_spec :
    kernel:string -> spec:string -> size:int -> Shackle.Spec.t option;
  rv_params : kernel:string -> n:int -> (string * int) list;
  rv_init : kernel:string -> n:int -> string -> int array -> float;
}

type config = {
  cfg_domains : int;
  cfg_fuel : int option;
  cfg_timeout_ms : int option;
  cfg_hold : (string -> unit) option;
  cfg_queue_high : int;
  cfg_idle_timeout_ms : int option;
  cfg_frame_timeout_ms : int option;
  cfg_write_timeout_ms : int;
}

let default_config =
  { cfg_domains = 1;
    cfg_fuel = None;
    cfg_timeout_ms = None;
    cfg_hold = None;
    cfg_queue_high = 64;
    cfg_idle_timeout_ms = None;
    cfg_frame_timeout_ms = Some 10_000;
    cfg_write_timeout_ms = 5_000 }

(* An in-flight batch entry: the leader computes and publishes, followers
   wait on the condition until [result] is set. *)
type inflight = { mutable result : (Proto.reply, Proto.error) result option }

type t = {
  resolve : resolve;
  config : config;
  solver_ctx : Omega.Ctx.t;
  dcache : Diskcache.t option;
  pipelines : (string, Pipeline.t) Hashtbl.t;
  pipelines_lock : Mutex.t;
  inflight : (string, inflight) Hashtbl.t;
  inflight_lock : Mutex.t;
  inflight_cond : Condition.t;
  admit_lock : Mutex.t;
  mutable admitted : int; (* total weight of admitted, unfinished requests *)
  st : Stats.t;
  stop : bool Atomic.t;
}

let create ?cache ?(config = default_config) resolve =
  let solver_ctx =
    Omega.Ctx.create ~cache:true
      ?backing:(Option.map Diskcache.backing cache)
      ?fuel:config.cfg_fuel ?timeout_ms:config.cfg_timeout_ms ()
  in
  { resolve;
    config;
    solver_ctx;
    dcache = cache;
    pipelines = Hashtbl.create 16;
    pipelines_lock = Mutex.create ();
    inflight = Hashtbl.create 16;
    inflight_lock = Mutex.create ();
    inflight_cond = Condition.create ();
    admit_lock = Mutex.create ();
    admitted = 0;
    st = Stats.create ();
    stop = Atomic.make false }

let solver t = t.solver_ctx
let stats t = t.st
let cache t = t.dcache
let shutdown t = Atomic.set t.stop true
let shutting_down t = Atomic.get t.stop

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

(* Cost classes, in units of "one legality probe": a tune sweep runs the
   legality machinery over a whole candidate lattice and then simulates,
   a sim pays codegen + interpretation, everything else is one solve or
   less.  Stats and Shutdown are free — a health probe must never be
   shed. *)
let weight = function
  | Proto.Tune _ -> 8
  | Proto.Sim _ -> 2
  | Proto.Parse _ | Proto.Probe _ | Proto.Legal _ -> 1
  | Proto.Stats | Proto.Shutdown -> 0

let admitted_weight t = Mutex.protect t.admit_lock (fun () -> t.admitted)

(* The retry-after hint is deterministic in the load at shed time:
   proportional to the admitted weight (a fuller queue needs longer to
   drain), clamped to a sane band.  Fixed trace -> fixed hints. *)
let retry_after_ms_of_load admitted = min 2000 (max 50 (25 * admitted))

let try_admit t req =
  let w = weight req in
  if w = 0 then Ok ()
  else
    Mutex.protect t.admit_lock (fun () ->
        (* an otherwise-idle daemon always admits, however heavy the
           request — a weight above the mark must not be unserviceable *)
        if t.admitted > 0 && t.admitted + w > t.config.cfg_queue_high then
          Error
            (Proto.error_retry "overloaded"
               (Printf.sprintf
                  "admitted weight %d + %d exceeds high-water mark %d"
                  t.admitted w t.config.cfg_queue_high)
               ~retry_after_ms:(retry_after_ms_of_load t.admitted))
        else begin
          t.admitted <- t.admitted + w;
          Ok ()
        end)

let release t req =
  let w = weight req in
  if w > 0 then
    Mutex.protect t.admit_lock (fun () -> t.admitted <- max 0 (t.admitted - w))

(* Admit or account a shed: a shed request still shows up in the per-op
   latency series (it was answered, near-instantly) and in the error-code
   breakdown. *)
let admit_or_shed t req =
  match try_admit t req with
  | Ok () -> Ok ()
  | Error e ->
    Stats.record t.st
      ~op:(Wire.opcode_string (Proto.opcode_of_request req))
      ~seconds:0.0;
    Stats.incr_error t.st ~code:e.Proto.e_code;
    Error e

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

let deadline_of req =
  match Proto.budget_ms_of req with
  | Some ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.0)
  | None -> infinity

let deadline_err =
  Proto.error "deadline_exceeded" "request budget expired before completion"

let remaining_ms deadline =
  if deadline = infinity then None
  else
    Some
      (max 1
         (int_of_float (ceil ((deadline -. Unix.gettimeofday ()) *. 1000.0))))

let clamp_timeout_ms cfg deadline =
  match (cfg, remaining_ms deadline) with
  | None, r -> r
  | Some c, None -> Some c
  | Some c, Some r -> Some (min c r)

(* ------------------------------------------------------------------ *)
(* Request computation                                                 *)
(* ------------------------------------------------------------------ *)

let err code msg = Error (Proto.error code msg)

(* All pipelines share the server's solver context, so legality systems
   seen through any kernel land in one memo (and one disk cache). *)
let pipeline_for t kernel =
  Mutex.protect t.pipelines_lock (fun () ->
      match Hashtbl.find_opt t.pipelines kernel with
      | Some p -> Ok p
      | None -> (
        match List.assoc_opt kernel (t.resolve.rv_kernels ()) with
        | None -> err "unknown_kernel" (Printf.sprintf "no kernel %S" kernel)
        | Some prog ->
          let p = Pipeline.create ~solver:t.solver_ctx prog in
          Hashtbl.add t.pipelines kernel p;
          Ok p))

let spec_for t ~kernel ~spec ~size =
  match t.resolve.rv_spec ~kernel ~spec ~size with
  | Some s -> Ok s
  | None ->
    err "unknown_spec"
      (Printf.sprintf "no spec %S for kernel %S at size %d" spec kernel size)

let machine_of_name name =
  if String.equal name Model.sp2_like.Model.m_name then Ok Model.sp2_like
  else if String.equal name Model.two_level.Model.m_name then
    Ok Model.two_level
  else err "unknown_machine" (Printf.sprintf "no machine %S" name)

let quality_of_name name =
  if String.equal name Model.untuned.Model.q_name then Ok Model.untuned
  else if String.equal name Model.tuned.Model.q_name then Ok Model.tuned
  else err "unknown_machine" (Printf.sprintf "no cache quality %S" name)

let ( let* ) = Result.bind

let dc_metrics dc =
  { Metrics.dc_entries = Diskcache.entries dc;
    dc_bytes = Diskcache.bytes_on_disk dc;
    dc_hits = Diskcache.hits dc;
    dc_misses = Diskcache.misses dc;
    dc_appended = Diskcache.appended dc;
    dc_dropped = Diskcache.dropped_bytes dc }

let stats_json t =
  let solver_m = Metrics.solver_of_ctx t.solver_ctx in
  Json.Obj
    [ ("schema", Json.Str Report.shackled_stats);
      ("server", Stats.to_json t.st);
      ("solver", Metrics.solver_to_json solver_m);
      ("solves", Json.Int (Metrics.solver_solves solver_m));
      ( "diskcache",
        match t.dcache with
        | None -> Json.Null
        | Some dc -> Metrics.diskcache_to_json (dc_metrics dc) ) ]

let compute t ~deadline (req : Proto.request) :
    (Proto.reply, Proto.error) result =
  match req with
  | Proto.Parse { text } -> (
    match Pipeline.parse ~solver:t.solver_ctx text with
    | Error msg -> err "bad_request" msg
    | Ok p ->
      Ok
        (Proto.R_parsed
           { pretty = Loopir.Ast.program_to_string (Pipeline.program p);
             deps = List.length (Pipeline.deps p) }))
  | Proto.Probe { kernel; spec; size; budget_ms = _ } ->
    let* p = pipeline_for t kernel in
    let* s = spec_for t ~kernel ~spec ~size in
    Ok
      (Proto.R_verdict
         { verdict = Shackle.Verdict.to_string (Pipeline.probe p s) })
  | Proto.Legal { kernel; spec; size; budget_ms = _ } ->
    let* p = pipeline_for t kernel in
    let* s = spec_for t ~kernel ~spec ~size in
    Ok
      (Proto.R_verdict
         { verdict =
             Shackle.Verdict.to_string
               (if Pipeline.is_legal p s then Shackle.Verdict.Legal
                else Shackle.Verdict.Illegal []) })
  | Proto.Tune { kernel; size; n; budget_ms = _ } -> (
    match List.assoc_opt kernel (t.resolve.rv_kernels ()) with
    | None -> err "unknown_kernel" (Printf.sprintf "no kernel %S" kernel)
    | Some prog ->
      let options =
        { Tune.default_options with
          Tune.sizes = [ size ];
          (* the sweep's own per-query budget is additionally clamped to
             what remains of the client's deadline *)
          timeout_ms = clamp_timeout_ms t.config.cfg_timeout_ms deadline;
          fuel = t.config.cfg_fuel }
      in
      let report =
        Tune.tune ~options
          ~init:(t.resolve.rv_init ~kernel ~n)
          ~kernel
          ~params:(t.resolve.rv_params ~kernel ~n)
          prog
      in
      (match Tune.best report with
      | None -> err "failed" "tune: no legal candidate survived"
      | Some s ->
        Ok
          (Proto.R_tuned
             { label = s.Tune.s_cand.Tune.c_label;
               cycles = s.Tune.s_cycles;
               candidates = report.Tune.rp_counts.Tune.n_enumerated })))
  | Proto.Sim { kernel; spec; size; n; machine; quality; budget_ms = _ } ->
    let* p = pipeline_for t kernel in
    let* spec =
      match spec with
      | None -> Ok None
      | Some name ->
        let* s = spec_for t ~kernel ~spec:name ~size in
        Ok (Some s)
    in
    let* machine = machine_of_name machine in
    let* quality = quality_of_name quality in
    (* Codegen is cached per (kernel, spec) inside the shared pipeline, so
       repeated Sim requests across an N sweep re-run Omega zero times;
       each request only pays the solver-free per-size specialization. *)
    let params = t.resolve.rv_params ~kernel ~n in
    let r =
      Model.simulate ~machine ~quality
        (Pipeline.specialize ?spec p ~params)
        ~params
        ~init:(t.resolve.rv_init ~kernel ~n)
    in
    Ok
      (Proto.R_sim
         { cycles = r.Model.r_cycles;
           mflops = r.Model.r_mflops;
           flops = r.Model.r_flops;
           accesses = r.Model.r_accesses })
  | Proto.Stats -> Ok (Proto.R_stats (stats_json t))
  | Proto.Shutdown ->
    shutdown t;
    Ok Proto.R_bye

let compute_safe t ~deadline req =
  try compute t ~deadline req
  with exn -> err "failed" (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* In-flight batching                                                  *)
(* ------------------------------------------------------------------ *)

(* Only idempotent work is batched; Stats is a live snapshot and Shutdown
   has a side effect, so both bypass the table. *)
let batchable = function
  | Proto.Stats | Proto.Shutdown -> false
  | Proto.Parse _ | Proto.Probe _ | Proto.Legal _ | Proto.Tune _
  | Proto.Sim _ -> true

let handle_batched t ~deadline req =
  let key = Proto.request_key req in
  Mutex.lock t.inflight_lock;
  match Hashtbl.find_opt t.inflight key with
  | Some entry ->
    (* follower: the leader's reply is ours, byte for byte.  Equal keys
       imply equal budgets, so the leader's deadline tracks ours. *)
    Stats.incr_collapses t.st;
    let rec wait () =
      match entry.result with
      | Some r -> r
      | None ->
        Condition.wait t.inflight_cond t.inflight_lock;
        wait ()
    in
    let r = wait () in
    Mutex.unlock t.inflight_lock;
    r
  | None ->
    let entry = { result = None } in
    Hashtbl.add t.inflight key entry;
    Mutex.unlock t.inflight_lock;
    (match t.config.cfg_hold with Some hold -> hold key | None -> ());
    let r = compute_safe t ~deadline req in
    Mutex.lock t.inflight_lock;
    entry.result <- Some r;
    Hashtbl.remove t.inflight key;
    Condition.broadcast t.inflight_cond;
    Mutex.unlock t.inflight_lock;
    r

(* The post-admission path: deadline pre-check (an expired request costs
   no compute), solver work capped by the ambient deadline, and a
   post-check so a result the caller has already given up on is reported
   as [deadline_exceeded] rather than as a phantom success. *)
let handle_admitted t ~deadline req =
  if shutting_down t && req <> Proto.Shutdown then
    err "shutting_down" "server is shutting down"
  else begin
    let op = Wire.opcode_string (Proto.opcode_of_request req) in
    let t0 = Metrics.now_s () in
    let r =
      if Unix.gettimeofday () > deadline then Error deadline_err
      else
        let r =
          Omega.with_deadline ~until:deadline (fun () ->
              if batchable req then handle_batched t ~deadline req
              else compute_safe t ~deadline req)
        in
        if Unix.gettimeofday () > deadline then Error deadline_err else r
    in
    Stats.record t.st ~op ~seconds:(Metrics.now_s () -. t0);
    (match r with
    | Error e -> Stats.incr_error t.st ~code:e.Proto.e_code
    | Ok _ -> ());
    r
  end

let handle t req =
  let deadline = deadline_of req in
  match admit_or_shed t req with
  | Error e -> Error e
  | Ok () ->
    Fun.protect
      ~finally:(fun () -> release t req)
      (fun () -> handle_admitted t ~deadline req)

(* ------------------------------------------------------------------ *)
(* Per-connection byte state machine                                   *)
(* ------------------------------------------------------------------ *)

module Session = struct
  type server = t

  type item =
    | I_reply of string (* a pre-encoded frame (framing/decode errors) *)
    | I_request of { id : int; req : Proto.request }

  type t = { srv : server; mutable buf : string }

  let create srv = { srv; buf = "" }
  let buffered s = String.length s.buf

  let oversized msg =
    String.length msg >= 14 && String.equal (String.sub msg 0 14) "payload length"

  let error_frame ~id e =
    Wire.encode ~op:Wire.Reply_err ~id ~payload:(Proto.error_to_payload e)

  (* Consume every complete frame in the buffer, producing decode-level
     items in arrival order.  Framing violations (bad magic, oversized
     length) poison the stream: one error item, [`Close], buffer
     dropped.  Frame-level problems (unknown opcode, malformed payload)
     produce an error item and the stream continues. *)
  let poll s =
    let items = ref [] in
    let verdict = ref `Keep in
    let continue = ref true in
    while !continue do
      match Wire.decode s.buf with
      | Wire.Need_more _ -> continue := false
      | Wire.Corrupt msg ->
        let code = if oversized msg then "oversized" else "bad_magic" in
        Stats.incr_error s.srv.st ~code;
        items := I_reply (error_frame ~id:0 (Proto.error code msg)) :: !items;
        s.buf <- "";
        verdict := `Close;
        continue := false
      | Wire.Got (raw, consumed) -> (
        s.buf <- String.sub s.buf consumed (String.length s.buf - consumed);
        match Wire.opcode_of_byte raw.Wire.r_op with
        | None | Some (Wire.Reply_ok | Wire.Reply_err) ->
          Stats.incr_error s.srv.st ~code:"bad_opcode";
          items :=
            I_reply
              (error_frame ~id:raw.Wire.r_id
                 (Proto.error "bad_opcode"
                    (Printf.sprintf "opcode 0x%02x is not a request"
                       raw.Wire.r_op)))
            :: !items
        | Some op -> (
          match Proto.request_of_payload ~op raw.Wire.r_payload with
          | Error e ->
            Stats.incr_error s.srv.st ~code:e.Proto.e_code;
            items := I_reply (error_frame ~id:raw.Wire.r_id e) :: !items
          | Ok req -> items := I_request { id = raw.Wire.r_id; req } :: !items))
    done;
    (List.rev !items, !verdict)

  let append s bytes = s.buf <- s.buf ^ bytes

  (* The synchronous shape (in-process callers: tests, the wire fuzzer):
     decode and compute inline, one output byte string. *)
  let feed s bytes =
    append s bytes;
    let items, verdict = poll s in
    let out = Buffer.create 256 in
    let closed = ref (verdict = `Close) in
    let rec run = function
      | [] -> ()
      | I_reply frame :: rest ->
        Buffer.add_string out frame;
        run rest
      | I_request { id; req } :: rest -> (
        match handle s.srv req with
        | Error e ->
          Buffer.add_string out (error_frame ~id e);
          run rest
        | Ok reply ->
          Buffer.add_string out
            (Wire.encode ~op:Wire.Reply_ok ~id
               ~payload:(Proto.reply_to_payload reply));
          if reply = Proto.R_bye then closed := true else run rest)
    in
    run items;
    (Buffer.contents out, if !closed then `Close else `Keep)
end

(* ------------------------------------------------------------------ *)
(* Socket serving                                                      *)
(* ------------------------------------------------------------------ *)

(* EINTR-hardened primitives.  [select] with a bounded timeout is the
   only place the IO domain blocks. *)
let rec select_i r w e tmo =
  try Unix.select r w e tmo
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_i r w e tmo

type conn = {
  c_fd : Unix.file_descr;
  c_session : Session.t;
  c_lock : Mutex.t; (* guards c_out, c_alive, c_jobs *)
  mutable c_out : string; (* bytes awaiting write *)
  mutable c_alive : bool;
  mutable c_jobs : int; (* worker jobs still owing a reply *)
  mutable c_close_after_flush : bool;
  mutable c_last_read : float;
  mutable c_frame_since : float; (* mid-frame start; 0.0 = at a boundary *)
  mutable c_stall_since : float; (* unwritable-with-output start; 0.0 = ok *)
}

type job = {
  j_conn : conn;
  j_id : int;
  j_req : Proto.request;
  j_deadline : float;
}

let conn_append c frame wake =
  Mutex.protect c.c_lock (fun () ->
      if c.c_alive then begin
        c.c_out <- c.c_out ^ frame;
        wake ()
      end)

let serve t ~socket =
  (* a client hanging up mid-write must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 64;
  (* self-pipe: workers nudge the select loop when replies are ready *)
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let wake () =
    try ignore (Unix.write_substring pipe_w "!" 0 1)
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _)
    -> ()
  in
  let jobs : job Queue.t = Queue.create () in
  let qlock = Mutex.create () in
  let qcond = Condition.create () in
  let next_job () =
    Mutex.lock qlock;
    let rec waitq () =
      if not (Queue.is_empty jobs) then Some (Queue.pop jobs)
      else if shutting_down t then None
      else begin
        Condition.wait qcond qlock;
        waitq ()
      end
    in
    let r = waitq () in
    Mutex.unlock qlock;
    r
  in
  let finish_job j r =
    let frame =
      match r with
      | Ok reply ->
        Wire.encode ~op:Wire.Reply_ok ~id:j.j_id
          ~payload:(Proto.reply_to_payload reply)
      | Error e ->
        Wire.encode ~op:Wire.Reply_err ~id:j.j_id
          ~payload:(Proto.error_to_payload e)
    in
    conn_append j.j_conn frame wake;
    Mutex.protect j.j_conn.c_lock (fun () ->
        j.j_conn.c_jobs <- j.j_conn.c_jobs - 1)
  in
  let rec worker () =
    match next_job () with
    | None -> ()
    | Some j ->
      let alive = Mutex.protect j.j_conn.c_lock (fun () -> j.j_conn.c_alive) in
      (if not alive then begin
         release t j.j_req;
         Mutex.protect j.j_conn.c_lock (fun () ->
             j.j_conn.c_jobs <- j.j_conn.c_jobs - 1)
       end
       else begin
         let r =
           Fun.protect
             ~finally:(fun () -> release t j.j_req)
             (fun () -> handle_admitted t ~deadline:j.j_deadline j.j_req)
         in
         finish_job j r
       end);
      worker ()
  in
  let workers =
    List.init (max 1 t.config.cfg_domains) (fun _ -> Domain.spawn worker)
  in
  let conns : conn list ref = ref [] in
  let outstanding () =
    List.fold_left
      (fun acc c -> acc + Mutex.protect c.c_lock (fun () -> c.c_jobs))
      0 !conns
  in
  let close_conn ?(evicted = false) c =
    let was_alive =
      Mutex.protect c.c_lock (fun () ->
          let was = c.c_alive in
          c.c_alive <- false;
          was)
    in
    if was_alive then begin
      if evicted then Stats.incr_evicted t.st;
      (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
      conns := List.filter (fun c' -> c' != c) !conns
    end
  in
  let enqueue_request c ~now ~id req =
    match req with
    | Proto.Stats | Proto.Shutdown ->
      (* weight 0, O(1): answered inline so a health probe or a shutdown
         never waits behind queued solver work *)
      let frame =
        match handle t req with
        | Ok reply ->
          Wire.encode ~op:Wire.Reply_ok ~id
            ~payload:(Proto.reply_to_payload reply)
        | Error e ->
          Wire.encode ~op:Wire.Reply_err ~id
            ~payload:(Proto.error_to_payload e)
      in
      Mutex.protect c.c_lock (fun () ->
          if c.c_alive then c.c_out <- c.c_out ^ frame);
      if req = Proto.Shutdown then c.c_close_after_flush <- true
    | _ -> (
      match admit_or_shed t req with
      | Error e ->
        let frame =
          Wire.encode ~op:Wire.Reply_err ~id
            ~payload:(Proto.error_to_payload e)
        in
        Mutex.protect c.c_lock (fun () ->
            if c.c_alive then c.c_out <- c.c_out ^ frame)
      | Ok () ->
        let deadline =
          match Proto.budget_ms_of req with
          | Some ms -> now +. (float_of_int ms /. 1000.0)
          | None -> infinity
        in
        Mutex.protect c.c_lock (fun () -> c.c_jobs <- c.c_jobs + 1);
        Mutex.lock qlock;
        Queue.push { j_conn = c; j_id = id; j_req = req; j_deadline = deadline } jobs;
        Condition.signal qcond;
        Mutex.unlock qlock)
  in
  let read_buf = Bytes.create 65536 in
  let handle_readable c ~now =
    match Unix.read c.c_fd read_buf 0 (Bytes.length read_buf) with
    | 0 -> close_conn c
    | n ->
      c.c_last_read <- now;
      Session.append c.c_session (Bytes.sub_string read_buf 0 n);
      let items, verdict = Session.poll c.c_session in
      c.c_frame_since <-
        (if Session.buffered c.c_session > 0 then
           if c.c_frame_since = 0.0 then now else c.c_frame_since
         else 0.0);
      List.iter
        (function
          | Session.I_reply frame ->
            Mutex.protect c.c_lock (fun () ->
                if c.c_alive then c.c_out <- c.c_out ^ frame)
          | Session.I_request { id; req } -> enqueue_request c ~now ~id req)
        items;
      if verdict = `Close then c.c_close_after_flush <- true
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
    | exception Unix.Unix_error _ -> close_conn c
  in
  let flush_writable c ~now =
    Mutex.lock c.c_lock;
    let out = c.c_out in
    Mutex.unlock c.c_lock;
    if String.length out > 0 then begin
      match Unix.write_substring c.c_fd out 0 (String.length out) with
      | n ->
        Mutex.protect c.c_lock (fun () ->
            c.c_out <- String.sub c.c_out n (String.length c.c_out - n));
        c.c_stall_since <- 0.0
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        if c.c_stall_since = 0.0 then c.c_stall_since <- now
      | exception Unix.Unix_error _ -> close_conn c
    end
  in
  let ms_to_s ms = float_of_int ms /. 1000.0 in
  let check_timers ~now =
    List.iter
      (fun c ->
        let pending_out =
          Mutex.protect c.c_lock (fun () -> String.length c.c_out) > 0
        in
        let jobs_left = Mutex.protect c.c_lock (fun () -> c.c_jobs) in
        if
          pending_out && c.c_stall_since > 0.0
          && now -. c.c_stall_since > ms_to_s t.config.cfg_write_timeout_ms
        then close_conn ~evicted:true c
        else if c.c_close_after_flush && (not pending_out) && jobs_left = 0
        then close_conn c
        else
          match t.config.cfg_frame_timeout_ms with
          | Some ft
            when c.c_frame_since > 0.0 && now -. c.c_frame_since > ms_to_s ft
            ->
            (* slowloris: a frame started and never finished *)
            close_conn ~evicted:true c
          | _ -> (
            match t.config.cfg_idle_timeout_ms with
            | Some it
              when (not pending_out) && jobs_left = 0
                   && Session.buffered c.c_session = 0
                   && now -. c.c_last_read > ms_to_s it ->
              close_conn ~evicted:true c
            | _ -> ()))
      (* [!conns] is an immutable snapshot: close_conn replacing the ref
         does not disturb this walk *)
      !conns
  in
  let drain_pipe () =
    let b = Bytes.create 64 in
    let rec go () =
      match Unix.read pipe_r b 0 64 with
      | n when n > 0 -> go ()
      | _ -> ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    in
    go ()
  in
  let accept_new () =
    match Unix.accept listener with
    | fd, _ ->
      Unix.set_nonblock fd;
      Stats.incr_connections t.st;
      let now = Unix.gettimeofday () in
      conns :=
        { c_fd = fd;
          c_session = Session.create t;
          c_lock = Mutex.create ();
          c_out = "";
          c_alive = true;
          c_jobs = 0;
          c_close_after_flush = false;
          c_last_read = now;
          c_frame_since = 0.0;
          c_stall_since = 0.0 }
        :: !conns
    | exception Unix.Unix_error _ -> ()
  in
  (* the event loop: runs until shutdown, then drains outstanding jobs
     and pending output under a bounded grace period *)
  let grace_until = ref infinity in
  let running = ref true in
  while !running do
    let now = Unix.gettimeofday () in
    if shutting_down t && !grace_until = infinity then begin
      grace_until := now +. 2.0;
      (* wake any workers parked on an empty queue so they can exit *)
      Mutex.lock qlock;
      Condition.broadcast qcond;
      Mutex.unlock qlock
    end;
    if shutting_down t then begin
      let drained =
        outstanding () = 0
        && List.for_all
             (fun c -> Mutex.protect c.c_lock (fun () -> c.c_out = ""))
             !conns
      in
      if drained || now > !grace_until then running := false
    end;
    if !running then begin
      let reads =
        (if shutting_down t then [] else [ listener ])
        @ (pipe_r :: List.map (fun c -> c.c_fd) !conns)
      in
      let writes =
        List.filter_map
          (fun c ->
            if Mutex.protect c.c_lock (fun () -> c.c_out <> "") then
              Some c.c_fd
            else None)
          !conns
      in
      let readable, writable, _ = select_i reads writes [] 0.1 in
      let now = Unix.gettimeofday () in
      if List.mem pipe_r readable then drain_pipe ();
      if List.mem listener readable then accept_new ();
      List.iter
        (fun c -> if List.mem c.c_fd readable then handle_readable c ~now)
        !conns;
      List.iter
        (fun c -> if List.mem c.c_fd writable then flush_writable c ~now)
        !conns;
      check_timers ~now
    end
  done;
  (* shutdown: workers drain the queue (answering [shutting_down]) and
     exit; close whatever connections remain *)
  Mutex.lock qlock;
  Condition.broadcast qcond;
  Mutex.unlock qlock;
  List.iter Domain.join workers;
  List.iter (fun c -> close_conn c) !conns;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  (try Unix.close pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close pipe_w with Unix.Unix_error _ -> ());
  try Unix.unlink socket with Unix.Unix_error _ -> ()
