(* Multi-client load replay with an in-process chaos proxy.

   The proxy is threads, not domains: every forwarder blocks in read()
   most of its life, so the OS scheduler is the right multiplexer and a
   few dozen connections cost nothing.  All chaos decisions come from
   one seeded RNG behind a mutex — the schedule is a pure function of
   the seed and the chunk arrival order. *)

module Json = Observe.Json

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

type event = { ev_client : int; ev_req : Proto.request }

let gen_trace ~seed ~clients ~requests ~pool =
  if pool = [] then invalid_arg "Replay.gen_trace: empty pool";
  let rng = Random.State.make [| seed; 0x10ad |] in
  let pool = Array.of_list pool in
  List.init requests (fun _ ->
      { ev_client = Random.State.int rng (max 1 clients);
        ev_req = pool.(Random.State.int rng (Array.length pool)) })

let op_of_string = function
  | "parse" -> Some Wire.Parse
  | "probe" -> Some Wire.Probe
  | "legal" -> Some Wire.Legal
  | "tune" -> Some Wire.Tune
  | "sim" -> Some Wire.Sim
  | "stats" -> Some Wire.Stats
  | "shutdown" -> Some Wire.Shutdown
  | _ -> None

let save_trace path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun ev ->
          let payload =
            match Json.of_string (Proto.request_to_payload ev.ev_req) with
            | Ok j -> j
            | Error _ -> Json.Obj [] (* request payloads are always JSON *)
          in
          let line =
            Json.Obj
              [ ("client", Json.Int ev.ev_client);
                ( "op",
                  Json.Str
                    (Wire.opcode_string (Proto.opcode_of_request ev.ev_req)) );
                ("payload", payload) ]
          in
          output_string oc (Json.to_string line);
          output_char oc '\n')
        events)

let load_trace path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> go (lineno + 1) acc
        | line -> (
          let fail msg =
            Error (Printf.sprintf "%s:%d: %s" path lineno msg)
          in
          match Json.of_string line with
          | Error msg -> fail ("invalid JSON: " ^ msg)
          | Ok j -> (
            match
              ( Json.member "client" j,
                Json.member "op" j,
                Json.member "payload" j )
            with
            | Some (Json.Int client), Some (Json.Str op), Some payload -> (
              match op_of_string op with
              | None -> fail ("unknown op " ^ op)
              | Some op -> (
                match
                  Proto.request_of_payload ~op (Json.to_string payload)
                with
                | Ok req -> go (lineno + 1) ({ ev_client = client; ev_req = req } :: acc)
                | Error e -> fail ("bad payload: " ^ e.Proto.e_message)))
            | _ -> fail "expected {client, op, payload}"))
      in
      go 1 [])

(* ------------------------------------------------------------------ *)
(* Chaos proxy                                                         *)
(* ------------------------------------------------------------------ *)

type chaos_config = {
  cx_stall_every : int;
  cx_stall_ms : int;
  cx_partial_every : int;
  cx_disconnect_every : int;
}

let default_chaos =
  { cx_stall_every = 5;
    cx_stall_ms = 3;
    cx_partial_every = 3;
    cx_disconnect_every = 43 }

let no_chaos =
  { cx_stall_every = 0;
    cx_stall_ms = 0;
    cx_partial_every = 0;
    cx_disconnect_every = 0 }

type proxy = {
  px_socket : string;
  px_listener : Unix.file_descr;
  px_chaos : chaos_config;
  px_upstream : string;
  px_lock : Mutex.t;
  px_rng : Random.State.t;
  mutable px_stalls : int;
  mutable px_partials : int;
  mutable px_disconnects : int;
  mutable px_conns : Unix.file_descr list;
  mutable px_threads : Thread.t list;
  mutable px_stop : bool;
}

let px_roll t k = k > 0 && Mutex.protect t.px_lock (fun () -> Random.State.int t.px_rng k = 0)

let px_register t fd =
  Mutex.protect t.px_lock (fun () -> t.px_conns <- fd :: t.px_conns)

let px_thread t th =
  Mutex.protect t.px_lock (fun () -> t.px_threads <- th :: t.px_threads)

let close_quiet fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let rec write_all fd buf off len =
  if len > 0 then
    match Unix.write fd buf off len with
    | n -> write_all fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd buf off len

(* One direction of one proxied connection.  A fault decision is made
   per chunk read, so bigger traffic sees more chaos — which is the
   point of a load test. *)
let forward t src dst =
  let buf = Bytes.create 4096 in
  let close_pair () =
    close_quiet src;
    close_quiet dst
  in
  let rec loop () =
    match Unix.read src buf 0 (Bytes.length buf) with
    | 0 -> close_pair ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error (_, _, _) -> close_pair ()
    | n ->
      if px_roll t t.px_chaos.cx_disconnect_every then begin
        Mutex.protect t.px_lock (fun () ->
            t.px_disconnects <- t.px_disconnects + 1);
        close_pair ()
      end
      else begin
        if px_roll t t.px_chaos.cx_stall_every then begin
          Mutex.protect t.px_lock (fun () -> t.px_stalls <- t.px_stalls + 1);
          Thread.delay (float_of_int t.px_chaos.cx_stall_ms /. 1000.0)
        end;
        let dribble = px_roll t t.px_chaos.cx_partial_every in
        match
          if dribble then begin
            Mutex.protect t.px_lock (fun () ->
                t.px_partials <- t.px_partials + 1);
            let rec pieces off =
              if off < n then begin
                let k =
                  min (n - off)
                    (1 + Mutex.protect t.px_lock (fun () ->
                             Random.State.int t.px_rng 3))
                in
                write_all dst buf off k;
                Thread.delay 0.0005;
                pieces (off + k)
              end
            in
            pieces 0
          end
          else write_all dst buf 0 n
        with
        | () -> loop ()
        | exception Unix.Unix_error (_, _, _) -> close_pair ()
      end
  in
  loop ()

let proxy_start ~upstream ~socket ~seed ~chaos =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if Sys.file_exists socket then (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 64;
  let t =
    { px_socket = socket;
      px_listener = listener;
      px_chaos = chaos;
      px_upstream = upstream;
      px_lock = Mutex.create ();
      px_rng = Random.State.make [| seed; 0xc4a05 |];
      px_stalls = 0;
      px_partials = 0;
      px_disconnects = 0;
      px_conns = [];
      px_threads = [];
      px_stop = false }
  in
  let rec accept_loop () =
    match Unix.accept t.px_listener with
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> accept_loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | exception Unix.Unix_error (_, _, _) -> () (* listener closed: stop *)
    | client, _ -> (
      match
        let up = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try Unix.connect up (Unix.ADDR_UNIX t.px_upstream)
         with e -> close_quiet up; raise e);
        up
      with
      | exception Unix.Unix_error (_, _, _) ->
        (* daemon down (e.g. mid kill -9): drop the client, who retries *)
        close_quiet client;
        accept_loop ()
      | up ->
        px_register t client;
        px_register t up;
        px_thread t (Thread.create (fun () -> forward t client up) ());
        px_thread t (Thread.create (fun () -> forward t up client) ());
        accept_loop ())
  in
  px_thread t (Thread.create accept_loop ());
  t

let proxy_counts t =
  Mutex.protect t.px_lock (fun () ->
      (t.px_stalls, t.px_partials, t.px_disconnects))

let proxy_stop t =
  let threads =
    Mutex.protect t.px_lock (fun () ->
        t.px_stop <- true;
        t.px_threads)
  in
  close_quiet t.px_listener;
  Mutex.protect t.px_lock (fun () -> t.px_conns) |> List.iter close_quiet;
  List.iter Thread.join threads;
  try Unix.unlink t.px_socket with Unix.Unix_error _ | Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Driving a trace                                                     *)
(* ------------------------------------------------------------------ *)

type outcome = {
  o_completed : int;
  o_retries : int;
  o_shed : int;
  o_deadline_exceeded : int;
  o_errors : (string * int) list;
  o_stats : Stats.t;
}

let drive ?stats ~socket ~seed ~clients trace =
  let clients = max 1 clients in
  let stats = match stats with Some s -> s | None -> Stats.create () in
  let lock = Mutex.create () in
  let completed = ref 0 and shed = ref 0 and dl = ref 0 and retries = ref 0 in
  let errors : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let per_client = Array.make clients [] in
  List.iter
    (fun ev ->
      let i = ev.ev_client mod clients in
      per_client.(i) <- ev :: per_client.(i))
    trace;
  Array.iteri (fun i l -> per_client.(i) <- List.rev l) per_client;
  let run_client i () =
    let h = Client.connect_retry ~socket ~seed:(seed + (i * 7919)) () in
    Fun.protect
      ~finally:(fun () ->
        Mutex.protect lock (fun () -> retries := !retries + Client.retries h);
        Client.close_retry h)
      (fun () ->
        List.iter
          (fun ev ->
            let op =
              Wire.opcode_string (Proto.opcode_of_request ev.ev_req)
            in
            let t0 = Unix.gettimeofday () in
            let r = Client.rpc_retry h ev.ev_req in
            Stats.record stats ~op ~seconds:(Unix.gettimeofday () -. t0);
            Mutex.protect lock (fun () ->
                match r with
                | Ok _ -> incr completed
                | Error e ->
                  (match Hashtbl.find_opt errors e.Proto.e_code with
                  | Some n -> incr n
                  | None -> Hashtbl.add errors e.Proto.e_code (ref 1));
                  if String.equal e.Proto.e_code "overloaded" then incr shed;
                  if String.equal e.Proto.e_code "deadline_exceeded" then
                    incr dl))
          per_client.(i))
  in
  let threads = Array.init clients (fun i -> Thread.create (run_client i) ()) in
  Array.iter Thread.join threads;
  { o_completed = !completed;
    o_retries = !retries;
    o_shed = !shed;
    o_deadline_exceeded = !dl;
    o_errors =
      Hashtbl.fold (fun c n acc -> (c, !n) :: acc) errors []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    o_stats = stats }

(* ------------------------------------------------------------------ *)
(* The report                                                          *)
(* ------------------------------------------------------------------ *)

type phase = { ph_duration_ms : float; ph_disk_hits : int; ph_solves : int }

let phase_of_stats ~duration_ms j =
  match Json.member "solves" j with
  | Some (Json.Int solves) ->
    let hits =
      match Json.member "diskcache" j with
      | Some (Json.Obj _ as dc) -> (
        match Json.member "hits" dc with Some (Json.Int h) -> h | _ -> 0)
      | _ -> 0
    in
    Some { ph_duration_ms = duration_ms; ph_disk_hits = hits; ph_solves = solves }
  | _ -> None

let report_json ~seed ~clients ~requests outcome ~chaos:(stalls, partials, dx)
    ~cold ~warm =
  let ops =
    match Json.member "ops" (Stats.to_json outcome.o_stats) with
    | Some o -> o
    | None -> Json.Obj []
  in
  let phase = function
    | None -> Json.Null
    | Some p ->
      Json.Obj
        [ ("duration_ms", Json.Float p.ph_duration_ms);
          ("disk_hits", Json.Int p.ph_disk_hits);
          ("solves", Json.Int p.ph_solves) ]
  in
  Json.Obj
    [ ("schema", Json.Str Report.server_load_report);
      ("seed", Json.Int seed);
      ("clients", Json.Int clients);
      ("requests", Json.Int requests);
      ("completed", Json.Int outcome.o_completed);
      ("retries", Json.Int outcome.o_retries);
      ("shed", Json.Int outcome.o_shed);
      ("deadline_exceeded", Json.Int outcome.o_deadline_exceeded);
      ( "errors",
        Json.Obj (List.map (fun (c, n) -> (c, Json.Int n)) outcome.o_errors) );
      ( "chaos",
        Json.Obj
          [ ("stalls", Json.Int stalls);
            ("partial_writes", Json.Int partials);
            ("disconnects", Json.Int dx) ] );
      ("ops", ops);
      ("cold", phase cold);
      ("warm", phase warm) ]
