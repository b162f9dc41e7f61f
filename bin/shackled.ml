(* shackled: the shackle compiler as a long-running daemon.

     shackled serve --socket /tmp/shackled.sock --cache-dir CACHE \
                    [--domains D] [--fuel F] [--timeout-ms MS]
     shackled report --socket /tmp/shackled.sock        (stats RPC)
     shackled report --cache-dir CACHE                  (offline cache summary)
     shackled burst --socket /tmp/shackled.sock --frames N --seed K
     shackled replay --cache-dir CACHE [--clients N] [--kill] [--json F]
     shackled compact --cache-dir CACHE
     shackled check-json FILE
     shackled stop --socket /tmp/shackled.sock

   The daemon answers shackled/1 wire-protocol requests (see
   lib/server/wire.mli) over a Unix domain socket, shares one memoizing
   solver context across all clients, and — with --cache-dir — persists
   every legality verdict to an append-only disk cache that survives
   kill -9 and is shared across restarts. *)

module Json = Observe.Json
module K = Kernels.Builders
module Specs = Experiments.Specs

let resolver () =
  { Server.Daemon.rv_kernels = (fun () -> K.all ());
    rv_spec = (fun ~kernel ~spec ~size -> Specs.lookup ~kernel ~spec ~size);
    rv_params =
      (fun ~kernel ~n ->
        (* banded kernels need a bandwidth; a third of the problem keeps
           the banded structure visible at daemon-default sizes *)
        if String.equal kernel "cholesky_banded" then
          [ ("N", n); ("BW", max 1 (n / 3)) ]
        else [ ("N", n) ]);
    rv_init = (fun ~kernel ~n -> Kernels.Inits.for_kernel kernel ~n) }

(* ------------------------------------------------------------------ *)
(* Pidfile / stale-socket handling                                     *)
(* ------------------------------------------------------------------ *)

let pidfile socket = socket ^ ".pid"

let read_pid socket =
  match open_in (pidfile socket) with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> int_of_string_opt (String.trim (input_line ic)))
    |> fun p -> (match p with exception End_of_file -> None | p -> p)

(* A zombie answers kill(pid, 0), but it will never accept connections —
   treat it as dead so a crashed daemon's socket can be reclaimed. *)
let pid_zombie pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> false
        | line -> (
          (* "pid (comm) state ..." — comm may contain spaces/parens, so
             find the state after the LAST ')' *)
          match String.rindex_opt line ')' with
          | Some i when i + 2 < String.length line ->
            Char.equal line.[i + 2] 'Z'
          | _ -> false))

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> not (pid_zombie pid)
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true (* EPERM: alive, not ours *)

(* A socket file with no live owner (the previous daemon was killed -9)
   must not block a restart; a live owner must. *)
let claim_socket socket =
  if Sys.file_exists socket then begin
    match read_pid socket with
    | Some pid when pid_alive pid ->
      failwith
        (Printf.sprintf "socket %s is owned by live pid %d" socket pid)
    | _ ->
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      try Unix.unlink (pidfile socket) with Unix.Unix_error _ -> ()
  end;
  let oc = open_out (pidfile socket) in
  output_string oc (string_of_int (Unix.getpid ()));
  output_char oc '\n';
  close_out oc

let release_socket socket =
  try Unix.unlink (pidfile socket) with Unix.Unix_error _ | Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Subcommands                                                         *)
(* ------------------------------------------------------------------ *)

let serve_cmd args =
  let socket = ref Cli.default_socket in
  let cache_dir = ref None in
  let domains = ref 1 in
  let fuel = ref None in
  let timeout_ms = ref None in
  let specs =
    [ Cli.socket socket; Cli.cache_dir cache_dir; Cli.domains domains;
      Cli.fuel fuel; Cli.timeout_ms timeout_ms ]
  in
  Cli.run ~prog:"shackled serve" ~specs args (fun () ->
      claim_socket !socket;
      let cache = Option.map Server.Diskcache.open_dir !cache_dir in
      let config =
        { Server.Daemon.default_config with
          Server.Daemon.cfg_domains = !domains;
          cfg_fuel = !fuel;
          cfg_timeout_ms = !timeout_ms }
      in
      let t = Server.Daemon.create ?cache ~config (resolver ()) in
      (match cache with
      | Some dc ->
        Printf.printf
          "shackled: listening on %s (cache %s: %d entries, %d torn bytes \
           dropped)\n%!"
          !socket
          (Server.Diskcache.file dc)
          (Server.Diskcache.entries dc)
          (Server.Diskcache.dropped_bytes dc)
      | None -> Printf.printf "shackled: listening on %s (no cache)\n%!" !socket);
      Fun.protect
        ~finally:(fun () ->
          Option.iter Server.Diskcache.close cache;
          release_socket !socket)
        (fun () -> Server.Daemon.serve t ~socket:!socket);
      0)

let rpc_or_die socket req =
  let c = Server.Client.connect socket in
  Fun.protect
    ~finally:(fun () -> Server.Client.close c)
    (fun () ->
      match Server.Client.rpc c req with
      | Ok r -> r
      | Error e -> failwith (Printf.sprintf "%s: %s" e.Server.Proto.e_code e.e_message))

let report_cmd args =
  let socket = ref "" in
  let cache_dir = ref None in
  let specs =
    [ Cli.arg1 "--socket" ~docv:"PATH"
        ~doc:"query a live daemon's stats RPC"
        (fun v -> socket := v; Ok ());
      Cli.cache_dir cache_dir ]
  in
  Cli.run ~prog:"shackled report" ~specs args (fun () ->
      if not (String.equal !socket "") then begin
        match rpc_or_die !socket Server.Proto.Stats with
        | Server.Proto.R_stats j ->
          print_endline (Json.to_string j);
          0
        | _ ->
          prerr_endline "shackled report: unexpected reply";
          1
      end
      else
        match !cache_dir with
        | None ->
          prerr_endline "shackled report: need --socket or --cache-dir";
          2
        | Some dir ->
          let dc = Server.Diskcache.open_dir dir in
          let j =
            Json.Obj
              [ ("schema", Json.Str Report.shackled_cache_report);
                ("file", Json.Str (Server.Diskcache.file dc));
                ("entries", Json.Int (Server.Diskcache.entries dc));
                ("bytes", Json.Int (Server.Diskcache.bytes_on_disk dc));
                ( "dropped_bytes",
                  Json.Int (Server.Diskcache.dropped_bytes dc) ) ]
          in
          Server.Diskcache.close dc;
          print_endline (Json.to_string j);
          0)

let burst_cmd args =
  let socket = ref Cli.default_socket in
  let frames = ref 100 in
  let seed = ref 1 in
  let specs =
    [ Cli.socket socket;
      Cli.int "--frames" ~docv:"N" ~doc:"mutated frames to fire (default 100)"
        frames;
      Cli.seed seed ]
  in
  Cli.run ~prog:"shackled burst" ~specs args (fun () ->
      let b =
        Server.Client.fuzz_burst ~socket:!socket ~seed:!seed ~frames:!frames
      in
      Printf.printf
        "shackled burst: sent %d, ok %d, structured errors %d, hangups %d — \
         daemon healthy\n"
        b.Server.Client.b_sent b.b_ok b.b_err b.b_hangups;
      0)

(* ------------------------------------------------------------------ *)
(* compact: offline cache maintenance                                  *)
(* ------------------------------------------------------------------ *)

let compact_cmd args =
  let cache_dir = ref None in
  Cli.run ~prog:"shackled compact" ~specs:[ Cli.cache_dir cache_dir ] args
    (fun () ->
      match !cache_dir with
      | None ->
        prerr_endline "shackled compact: need --cache-dir";
        2
      | Some dir ->
        let dc = Server.Diskcache.open_dir dir in
        let before, after = Server.Diskcache.compact dc in
        Printf.printf
          "shackled compact: %s: %d entries, %d -> %d bytes (%d quarantined \
           bytes in %d spans)\n"
          (Server.Diskcache.file dc)
          (Server.Diskcache.entries dc)
          before after
          (Server.Diskcache.quarantined_bytes dc)
          (Server.Diskcache.quarantined_spans dc);
        Server.Diskcache.close dc;
        0)

(* ------------------------------------------------------------------ *)
(* check-json: validate any registry report                            *)
(* ------------------------------------------------------------------ *)

(* Same exit discipline as `shacklec tune --check-json`, `bench
   --check-json` and `fuzz --check-json` (0 valid, 1 invalid or
   unreadable), but family-agnostic: the daemon's tools emit three
   schemas (shackled-stats, shackled-cache-report, server-load-report)
   and the registry dispatches on the tag. *)
let check_json_cmd args =
  match args with
  | [ file ] ->
    if not (Sys.file_exists file) then begin
      Printf.eprintf "shackled: %s: no such file\n" file;
      1
    end
    else begin
      let ic = open_in_bin file in
      let len = in_channel_length ic in
      let raw = really_input_string ic len in
      close_in ic;
      match Json.of_string raw with
      | Error msg ->
        Printf.eprintf "shackled: %s: %s\n" file msg;
        1
      | Ok j -> (
        match Report.check j with
        | Ok tag ->
          Printf.printf "shackled: %s: valid %s\n" file tag;
          0
        | Error msg ->
          Printf.eprintf "shackled: %s: %s\n" file msg;
          1)
    end
  | _ ->
    prerr_endline "usage: shackled check-json FILE";
    2

(* ------------------------------------------------------------------ *)
(* replay: multi-client chaos/load harness                             *)
(* ------------------------------------------------------------------ *)

(* The harness owns its daemon as a child process, so SIGKILL mid-load
   is the real thing: the kernel tears the socket down, clients see
   resets, and the restart replays the disk cache from the same
   directory. *)

let spawn_daemon ~socket ~cache_dir ~domains =
  let exe = Sys.executable_name in
  let args =
    [ exe; "serve"; "--socket"; socket; "--domains"; string_of_int domains ]
    @ match cache_dir with Some d -> [ "--cache-dir"; d ] | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list args) devnull devnull devnull
  in
  Unix.close devnull;
  let rec wait n =
    if n = 0 then failwith "daemon did not come up";
    match Server.Client.connect socket with
    | c -> Server.Client.close c
    | exception Unix.Unix_error _ ->
      Unix.sleepf 0.02;
      wait (n - 1)
  in
  wait 500;
  pid

let kill9_daemon pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let stop_daemon ~socket pid =
  (match Server.Client.connect socket with
  | c ->
    ignore (Server.Client.rpc c Server.Proto.Shutdown);
    Server.Client.close c
  | exception Unix.Unix_error _ -> ());
  let rec wait n =
    if n = 0 then kill9_daemon pid
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        Unix.sleepf 0.02;
        wait (n - 1)
      | _ -> ()
      | exception Unix.Unix_error _ -> ()
  in
  wait 250

(* Cheap requests only (the production mix): the harness measures
   overload behavior, not solver throughput.  One unknown-kernel entry
   keeps the structured-error path hot. *)
let replay_pool ~budget_ms =
  let module P = Server.Proto in
  [ P.Legal { kernel = "matmul"; spec = "c"; size = 8; budget_ms };
    P.Legal { kernel = "matmul"; spec = "ca"; size = 8; budget_ms };
    P.Probe { kernel = "matmul"; spec = "c"; size = 8; budget_ms };
    P.Probe { kernel = "cholesky_right"; spec = "write"; size = 6; budget_ms };
    P.Legal { kernel = "cholesky_right"; spec = "write"; size = 6; budget_ms };
    P.Legal { kernel = "nope"; spec = "c"; size = 8; budget_ms };
    P.Stats ]

let replay_cmd args =
  let socket = ref Cli.default_socket in
  let cache_dir = ref None in
  let clients = ref 4 and requests = ref 120 and seed = ref 1 in
  let domains = ref 2 in
  let kill = ref false and no_chaos = ref false and no_warm = ref false in
  let kill_after_ms = ref 400 in
  let budget_ms = ref None in
  let json = ref None in
  let trace_out = ref None and trace_in = ref None in
  let specs =
    [ Cli.socket socket; Cli.cache_dir cache_dir;
      Cli.int "--clients" ~docv:"N"
        ~doc:"concurrent replay clients (default 4)" clients;
      Cli.int "--requests" ~docv:"N"
        ~doc:"trace length per phase (default 120)" requests;
      Cli.seed seed; Cli.domains domains;
      Cli.flag "--kill"
        ~doc:"SIGKILL the daemon mid-load and restart it on the same cache"
        kill;
      Cli.int "--kill-after-ms" ~docv:"MS"
        ~doc:"when --kill: fire the SIGKILL this long into the cold phase \
              (default 400)"
        kill_after_ms;
      Cli.flag "--no-chaos"
        ~doc:"disable the fault-injecting proxy (clean transport)" no_chaos;
      Cli.flag "--no-warm"
        ~doc:"skip the warm-restart phase (cold phase only)" no_warm;
      Cli.budget_ms budget_ms; Cli.json json;
      Cli.string_opt "--trace" ~docv:"FILE"
        ~doc:"record the generated trace as JSONL" trace_out;
      Cli.string_opt "--replay-trace" ~docv:"FILE"
        ~doc:"drive a previously recorded trace instead of generating one"
        trace_in ]
  in
  Cli.run ~prog:"shackled replay" ~specs args (fun () ->
      let module R = Server.Replay in
      let trace =
        match !trace_in with
        | Some file -> (
          match R.load_trace file with
          | Ok t -> t
          | Error msg -> failwith msg)
        | None ->
          R.gen_trace ~seed:!seed ~clients:!clients ~requests:!requests
            ~pool:(replay_pool ~budget_ms:!budget_ms)
      in
      Option.iter (fun file -> R.save_trace file trace) trace_out.contents;
      let upstream = !socket in
      let proxy_sock = !socket ^ ".chaos" in
      let chaos_cfg = if !no_chaos then R.no_chaos else R.default_chaos in
      let stats = Server.Stats.create () in
      let daemon = ref (spawn_daemon ~socket:upstream ~cache_dir:!cache_dir ~domains:!domains) in
      let proxy =
        R.proxy_start ~upstream ~socket:proxy_sock ~seed:!seed ~chaos:chaos_cfg
      in
      let snapshot () =
        match Server.Client.connect upstream with
        | exception Unix.Unix_error _ -> None
        | c ->
          Fun.protect
            ~finally:(fun () -> Server.Client.close c)
            (fun () ->
              match Server.Client.rpc c Server.Proto.Stats with
              | Ok (Server.Proto.R_stats j) -> Some j
              | _ -> None)
      in
      Fun.protect
        ~finally:(fun () ->
          R.proxy_stop proxy;
          kill9_daemon !daemon)
        (fun () ->
          (* cold phase, optionally interrupted by a SIGKILL + restart *)
          let killer =
            if not !kill then None
            else
              Some
                (Thread.create
                   (fun () ->
                     Thread.delay (float_of_int !kill_after_ms /. 1000.0);
                     kill9_daemon !daemon;
                     daemon :=
                       spawn_daemon ~socket:upstream ~cache_dir:!cache_dir
                         ~domains:!domains)
                   ())
          in
          let t0 = Unix.gettimeofday () in
          let cold_out =
            R.drive ~stats ~socket:proxy_sock ~seed:!seed ~clients:!clients
              trace
          in
          Option.iter Thread.join killer;
          let cold_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
          let cold =
            Option.bind (snapshot ()) (R.phase_of_stats ~duration_ms:cold_ms)
          in
          (* warm phase: a fresh daemon process on the same cache dir
             replays the identical trace *)
          let warm_out, warm =
            if !no_warm then (None, None)
            else begin
              stop_daemon ~socket:upstream !daemon;
              daemon :=
                spawn_daemon ~socket:upstream ~cache_dir:!cache_dir
                  ~domains:!domains;
              let t1 = Unix.gettimeofday () in
              let out =
                R.drive ~stats ~socket:proxy_sock ~seed:(!seed + 1)
                  ~clients:!clients trace
              in
              let warm_ms = (Unix.gettimeofday () -. t1) *. 1000.0 in
              ( Some out,
                Option.bind (snapshot ())
                  (R.phase_of_stats ~duration_ms:warm_ms) )
            end
          in
          stop_daemon ~socket:upstream !daemon;
          let add f = f cold_out + match warm_out with Some o -> f o | None -> 0 in
          let merged_errors =
            let tbl = Hashtbl.create 8 in
            let add_all o =
              List.iter
                (fun (c, n) ->
                  match Hashtbl.find_opt tbl c with
                  | Some r -> r := !r + n
                  | None -> Hashtbl.add tbl c (ref n))
                o.R.o_errors
            in
            add_all cold_out;
            Option.iter add_all warm_out;
            Hashtbl.fold (fun c n acc -> (c, !n) :: acc) tbl []
            |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          in
          let outcome =
            { R.o_completed = add (fun o -> o.R.o_completed);
              o_retries = add (fun o -> o.R.o_retries);
              o_shed = add (fun o -> o.R.o_shed);
              o_deadline_exceeded = add (fun o -> o.R.o_deadline_exceeded);
              o_errors = merged_errors;
              o_stats = stats }
          in
          let phases = 1 + if !no_warm then 0 else 1 in
          let j =
            R.report_json ~seed:!seed ~clients:!clients
              ~requests:(phases * List.length trace)
              outcome ~chaos:(R.proxy_counts proxy) ~cold ~warm
          in
          (match Report.check j with
          | Ok _ -> ()
          | Error msg -> failwith ("load report does not validate: " ^ msg));
          Option.iter
            (fun file ->
              let oc = open_out file in
              output_string oc (Json.to_string ~pretty:true j);
              output_char oc '\n';
              close_out oc)
            json.contents;
          let stalls, partials, dx = R.proxy_counts proxy in
          Printf.printf
            "shackled replay: %d requests over %d clients: %d completed, %d \
             retries, %d shed, %d deadline-exceeded (chaos: %d stalls, %d \
             partial writes, %d disconnects)%s\n"
            (phases * List.length trace)
            !clients outcome.R.o_completed outcome.R.o_retries
            outcome.R.o_shed outcome.R.o_deadline_exceeded stalls partials dx
            (match (cold, warm) with
            | Some c, Some w ->
              Printf.sprintf "; cold %.0f ms / %d solves, warm %.0f ms / %d \
                              solves, %d disk hits"
                c.R.ph_duration_ms c.ph_solves w.R.ph_duration_ms w.ph_solves
                w.ph_disk_hits
            | _ -> "");
          0))

let stop_cmd args =
  let socket = ref Cli.default_socket in
  Cli.run ~prog:"shackled stop" ~specs:[ Cli.socket socket ] args (fun () ->
      match rpc_or_die !socket Server.Proto.Shutdown with
      | Server.Proto.R_bye ->
        print_endline "shackled: bye";
        0
      | _ ->
        prerr_endline "shackled stop: unexpected reply";
        1)

let () =
  exit
    (Cli.dispatch ~prog:"shackled" ~doc:"the shackle compiler as a daemon"
       ~version:"shackled/1"
       [ Cli.cmd "serve" ~doc:"run the daemon (blocks)" serve_cmd;
         Cli.cmd "report" ~doc:"print daemon stats or an offline cache summary"
           report_cmd;
         Cli.cmd "burst" ~doc:"fire a wire-protocol fuzz burst at a live daemon"
           burst_cmd;
         Cli.cmd "replay"
           ~doc:
             "spawn a daemon and drive it with concurrent clients through a \
              chaos proxy (load report, optional SIGKILL mid-load)"
           replay_cmd;
         Cli.cmd "compact"
           ~doc:"rewrite a legality cache: dedupe, drop quarantined spans"
           compact_cmd;
         Cli.cmd "check-json"
           ~doc:"validate a report file against its registry schema"
           check_json_cmd;
         Cli.cmd "stop" ~doc:"ask the daemon to shut down" stop_cmd ]
       Sys.argv)
