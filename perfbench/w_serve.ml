(* serve: a shackled daemon in its own process, as deployed, on a fresh
   cache directory pre-filled with the verdicts for part of the key set.
   One closed-loop client (one outstanding request, plain Client.rpc with
   no retry) replays seeded passes of legal, probe, parse and small-N sim
   requests.  Every pass has the same mix, so fixed shares of requests are
   answered from the memo, answered from disk, or solved fresh with the
   verdict appended and fsynced:

     memo   24  twelve hot keys, each twice (warmed before timing)
     parse   5  kernel source texts
     sim     6  small-N simulations (codegen warmed before timing)
     disk    2  keys whose verdicts the pre-filled cache holds
     fresh   4  keys never seen before (a new block size every pass)

   Tune requests stay out: a handful would set p99 on their own, and the
   tune workload measures them.

   An op's time is the daemon's CPU time (all its threads) while the
   request was outstanding, which is why there is one client: with two,
   the daemon's CPU during one request would include the other's.  The
   client's wall-clock round trip, which adds the wire, the queue hand-off
   and each fresh verdict's fsync, is kept beside it and reported by the
   traced run as client.rtt_ms. *)

module Proto = Server.Proto
module Client = Server.Client
module Json = Observe.Json

let default_daemon = Filename.concat "_build" (Filename.concat "default" "bin/shackled.exe")

type cls = Memo | Parse | Sim | Disk | Fresh

type tmpl = {
  cls : cls;
  key : string;  (** its row in the expected table *)
  req : pass:int -> Proto.request;
}

let legal kernel spec size = Proto.Legal { kernel; spec; size; budget_ms = None }
let probe kernel spec size = Proto.Probe { kernel; spec; size; budget_ms = None }

(* Block sizes of the per-pass keys: disjoint ranges, one size per pass,
   so pass [p]'s disk and fresh keys were never asked before pass [p]. *)
let disk_base = 1000
let fresh_base = 5000

(* The pre-filled cache covers this many passes; a run that gets there
   stops early rather than change its mix. *)
let max_passes = 300

(* Each hot key is asked once as legal and once as probe: two request
   keys, answered through the two legality entry points, and never
   batched into one computation by the daemon. *)
let hot =
  [ ("matmul", "c", 16); ("matmul", "ca", 16); ("matmul", "two-level", 32);
    ("cholesky_right", "write", 16); ("cholesky_right", "read", 16);
    ("cholesky_right", "full", 16); ("cholesky_left", "full", 16);
    ("cholesky_left", "write", 32); ("cholesky_banded", "write", 16);
    ("gmtry", "write", 16); ("adi", "fused", 1); ("qr", "columns", 8) ]

let parse_kernels = [ "matmul"; "cholesky_right"; "cholesky_left"; "gmtry"; "qr" ]

let sims =
  [ ("matmul", None, 16, "sp2-like", "untuned");
    ("matmul", Some ("c", 8), 24, "sp2-like", "tuned");
    ("cholesky_right", Some ("write", 8), 24, "two-level", "untuned");
    ("cholesky_left", Some ("full", 8), 20, "sp2-like", "untuned");
    ("gmtry", Some ("write", 8), 24, "sp2-like", "untuned");
    ("adi", Some ("fused", 1), 32, "two-level", "untuned") ]

let disk = [ ("matmul", "c", 0); ("matmul", "c", max_passes) ]

let fresh =
  [ (legal, "cholesky_right", "write"); (probe, "gmtry", "write");
    (legal, "matmul", "ca"); (probe, "qr", "columns") ]

let op_name = function Proto.Probe _ -> "probe" | _ -> "legal"

let texts () =
  List.map (fun (k, p) -> (k, Loopir.Ast.program_to_string p)) (Bench.kernels ())

let templates texts =
  let memo mk (kernel, spec, size) =
    let r = mk kernel spec size in
    { cls = Memo;
      key = Printf.sprintf "memo:%s:%s/%s/%d" (op_name r) kernel spec size;
      req = (fun ~pass:_ -> r) }
  in
  List.concat
    [ List.map (memo legal) hot;
      List.map (memo probe) hot;
      List.map
        (fun k ->
          let r = Proto.Parse { text = List.assoc k texts } in
          { cls = Parse; key = "parse:" ^ k; req = (fun ~pass:_ -> r) })
        parse_kernels;
      List.map
        (fun (kernel, spec, n, machine, quality) ->
          let r =
            Proto.Sim
              { kernel; spec = Option.map fst spec;
                size = (match spec with Some (_, b) -> b | None -> 1);
                n; machine; quality; budget_ms = None }
          in
          { cls = Sim;
            key =
              Printf.sprintf "sim:%s/%s/N=%d/%s/%s" kernel
                (match spec with Some (s, b) -> Printf.sprintf "%s:%d" s b | None -> "-")
                n machine quality;
            req = (fun ~pass:_ -> r) })
        sims;
      List.map
        (fun (kernel, spec, off) ->
          { cls = Disk;
            key = Printf.sprintf "disk:legal:%s/%s" kernel spec;
            req = (fun ~pass -> legal kernel spec (disk_base + off + pass)) })
        disk;
      List.map
        (fun (mk, kernel, spec) ->
          let name = op_name (mk kernel spec 1) in
          { cls = Fresh;
            key = Printf.sprintf "fresh:%s:%s/%s" name kernel spec;
            req = (fun ~pass -> mk kernel spec (fresh_base + pass)) })
        fresh ]
  |> Array.of_list

(* The requests that fill the cache before the daemon under test starts:
   every pass's disk keys. *)
let prefill_requests tmpls =
  List.concat_map
    (fun pass ->
      Array.to_list tmpls
      |> List.filter_map (fun t -> if t.cls = Disk then Some (t.req ~pass) else None))
    (List.init max_passes Fun.id)

(* Warm-up: every hot key (as a probe, which solves the same systems a
   legal request asks), parse text and sim once, so that the hot keys, the
   kernels' dependence systems and the sims' codegen are in the memo
   before timing starts, and the daemon's legal-op latency series holds
   timed requests only. *)
let warmup_requests tmpls =
  Array.to_list tmpls
  |> List.filter_map (fun t ->
         match (t.cls, t.req ~pass:0) with
         | Memo, Proto.Legal { kernel; spec; size; budget_ms = _ } ->
           Some (probe kernel spec size)
         | (Memo | Parse | Sim), r -> Some r
         | (Disk | Fresh), _ -> None)
  |> List.sort_uniq compare

let reply_row = function
  | Ok (Proto.R_verdict { verdict }) -> Ok [ ("verdict", verdict) ]
  | Ok (Proto.R_parsed { pretty; deps }) ->
    Ok [ ("deps", Expected.int deps); ("pretty_md5", Digest.to_hex (Digest.string pretty)) ]
  | Ok (Proto.R_sim { cycles; flops; accesses; mflops = _ }) ->
    Ok
      [ ("cycles", Expected.float cycles); ("flops", Expected.int flops);
        ("accesses", Expected.int accesses) ]
  | Ok _ -> Error "unexpected reply"
  | Error e -> Error (Printf.sprintf "%s: %s" e.Proto.e_code e.e_message)

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string }

let copy_dir src dst =
  Bench.mkdir_p dst;
  Array.iter
    (fun f ->
      let data = Option.get (Bench.read_file (Filename.concat src f)) in
      let oc = open_out_bin (Filename.concat dst f) in
      output_string oc data;
      close_out oc)
    (Sys.readdir src)

let live : daemon list ref = ref []

let reap d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  ignore (Unix.waitpid [] d.pid)

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap d

(* A benchmark that dies mid-run must not leave a daemon behind. *)
let () = at_exit (fun () -> List.iter kill !live)

(* Spawn the daemon and return once it has answered its first request. *)
let spawn ~exe ~socket ~cache_dir =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--cache-dir"; cache_dir |]
      devnull devnull devnull
  in
  Unix.close devnull;
  let d = { pid; socket } in
  live := d :: !live;
  let deadline = Bench.now () +. 60.0 in
  let rec connect () =
    match Client.connect socket with
    | c -> c
    | exception Unix.Unix_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (fun x -> x.pid <> pid) !live;
        failwith ("serve: daemon exited at start-up: " ^ exe));
      if Bench.now () > deadline then begin
        kill d;
        failwith "serve: daemon did not bind its socket within 60 s"
      end;
      Unix.sleepf 0.001;
      connect ()
  in
  let c = connect () in
  (match Client.rpc c Proto.Stats with
  | Ok (Proto.R_stats _) -> ()
  | _ ->
    kill d;
    failwith "serve: daemon's first reply was not a stats snapshot");
  (d, c)

let stop d c =
  (match Client.rpc c Proto.Shutdown with
  | Ok Proto.R_bye -> Client.close c; reap d
  | _ | (exception _) -> Client.close c; kill d)

let stats c =
  match Client.rpc c Proto.Stats with
  | Ok (Proto.R_stats j) -> j
  | _ -> failwith "serve: stats request failed"

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (fun j -> path j rest)

let num j keys =
  match path j keys with
  | Some (Json.Int n) -> float_of_int n
  | Some (Json.Float f) -> f
  | _ -> 0.0

(* The work counters the expected table pins, read from a stats snapshot. *)
let counters j =
  [ ("solves", num j [ "solves" ]);
    ("memo_hits", num j [ "solver"; "cache_hits" ]);
    ("queries", num j [ "solver"; "queries" ]);
    ("disk_hits", num j [ "diskcache"; "hits" ]);
    ("appends", num j [ "diskcache"; "appended" ]);
    ("errors", num j [ "server"; "errors" ]);
    ("shed", num j [ "server"; "shed" ]);
    ("evicted", num j [ "server"; "evicted" ]) ]

let counter_delta a b = List.map (fun (k, v) -> (k, v -. List.assoc k a)) b

(* The filesystem type of the longest mount point containing [dir]: an
   fsync costs ~0.1 ms on ext4 and ~1 us on tmpfs, and a fresh verdict is
   fsynced. *)
let filesystem dir =
  let dir = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  match Bench.read_file "/proc/mounts" with
  | None -> "unknown"
  | Some s ->
    List.fold_left
      (fun (best, fs) line ->
        match Bench.words line with
        | _ :: mnt :: typ :: _ ->
          let inside =
            String.equal mnt "/"
            || (String.length dir >= String.length mnt
               && String.sub dir 0 (String.length mnt) = mnt
               && (String.length dir = String.length mnt || dir.[String.length mnt] = '/'))
          in
          if inside && String.length mnt > String.length best then (mnt, typ) else (best, fs)
        | _ -> (best, fs))
      ("", "unknown")
      (String.split_on_char '\n' s)
    |> fun (mnt, fs) -> Printf.sprintf "%s (mounted at %s)" fs mnt

(* ------------------------------------------------------------------ *)
(* In-process reference                                                *)
(* ------------------------------------------------------------------ *)

let resolver () =
  { Server.Daemon.rv_kernels = Bench.kernels;
    rv_spec = (fun ~kernel ~spec ~size -> Experiments.Specs.lookup ~kernel ~spec ~size);
    rv_params = (fun ~kernel ~n -> Bench.params ~kernel ~n);
    rv_init = (fun ~kernel ~n -> Bench.init ~kernel ~n) }

(* The answers of an in-process daemon (no socket, no disk cache) to every
   request of [passes]. *)
let in_process tmpls passes =
  let d = Server.Daemon.create (resolver ()) in
  List.concat_map
    (fun pass ->
      Array.to_list tmpls
      |> List.map (fun t ->
             let req = t.req ~pass in
             (t, req, Server.Daemon.handle d req)))
    passes

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let work_dir () =
  Filename.concat Bench.out_dir (Printf.sprintf "serve-%d" (Unix.getpid ()))

let prefill ~exe ~dir tmpls =
  let d, c = spawn ~exe ~socket:(Filename.concat dir "prefill.sock")
      ~cache_dir:(Filename.concat dir "template") in
  List.iter
    (fun req ->
      match Client.rpc c req with
      | Ok _ -> ()
      | Error e -> stop d c; failwith ("serve: prefill: " ^ e.Proto.e_code))
    (prefill_requests tmpls);
  stop d c

let per_pass tbl =
  match Hashtbl.find_opt tbl "pass" with
  | Some row -> List.map (fun (k, v) -> (k, float_of_string v)) row
  | None -> failwith "serve: expected table has no pass row"

let rpc_ok c req =
  match Client.rpc c req with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "serve: %s: %s" e.Proto.e_code e.e_message)

let layers ~(region : Bench.region) ~spans ~before ~after =
  let ops = float_of_int (max 1 (List.length region.samples)) in
  let delta = counter_delta (counters before) (counters after) in
  let per_op k = List.assoc k delta /. ops in
  let rtt = List.map (fun s -> (s.Span.t1 -. s.Span.t0) *. 1000.0) spans in
  [ ("client.rtt_ms.p50", if rtt = [] then 0.0 else Stat.median rtt);
    ("daemon.service_ms.p50", num after [ "server"; "ops"; "legal"; "p50_ms" ]);
    ("daemon.service_ms.p99", num after [ "server"; "ops"; "legal"; "p99_ms" ]);
    ("daemon.solves", per_op "solves");
    ("daemon.memo_hits", per_op "memo_hits");
    ("diskcache.hits", per_op "disk_hits");
    ("diskcache.appends", per_op "appends");
    ("daemon.errors", List.assoc "errors" delta);
    ("daemon.shed", List.assoc "shed" delta);
    ("omega.queries", per_op "queries");
    ("omega.memo_hit_frac", Layers.ratio (List.assoc "memo_hits" delta) (List.assoc "queries" delta)) ]
  @ Layers.gc region

(* The daemon's work counters over [passes] whole passes must be exactly
   [passes] times the table's per-pass row; errors, sheds and evictions
   must be zero. *)
let counter_checks tbl ~passes delta =
  let want = per_pass tbl in
  List.filter_map
    (fun (k, v) ->
      let expected =
        match List.assoc_opt k want with
        | Some per -> per *. float_of_int passes
        | None -> 0.0
      in
      if v = expected then None
      else
        Some
          (Bench.mismatch ~what:"serve" ~key:("counter " ^ k)
             ~expected:(Printf.sprintf "%.0f" expected)
             ~got:(Printf.sprintf "%.0f" v)))
    delta

let run ~daemon:exe ~seed ~seconds ~trace =
  if not (Sys.file_exists exe) then failwith ("serve: no daemon executable " ^ exe);
  let tbl = Expected.load "serve" in
  let dir = work_dir () in
  Bench.rm_rf dir;
  Bench.mkdir_p dir;
  Fun.protect ~finally:(fun () -> Bench.rm_rf dir) @@ fun () ->
  let tmpls = templates (texts ()) in
  prefill ~exe ~dir tmpls;
  (* Set-up: daemon spawn and warm cache load up to the first reply, on a
     fresh copy of the pre-filled cache each time; measured as the new
     daemon's CPU time when it has answered, normalized like every time.
     The last set-up's daemon serves the run. *)
  let setup k =
    let cache_dir = Filename.concat dir (Printf.sprintf "cache%d" k) in
    copy_dir (Filename.concat dir "template") cache_dir;
    let d, c =
      spawn ~exe ~socket:(Filename.concat dir (Printf.sprintf "d%d.sock" k)) ~cache_dir
    in
    (Bench.proc_cpu_s d.pid, d, c, cache_dir)
  in
  let reps = 5 and slow0 = Bench.slowness () in
  let times =
    List.init (reps - 1) (fun k ->
        let dt, d, c, _ = setup k in
        stop d c;
        dt)
  in
  let dt, d, c, cache_dir = setup reps in
  let setup_s = Stat.median (dt :: times) /. ((slow0 +. Bench.slowness ()) /. 2.0) in
  let stopped = ref false in
  let finish () = if not !stopped then (stopped := true; stop d c) in
  Fun.protect ~finally:finish @@ fun () ->
  List.iter (rpc_ok c) (warmup_requests tmpls);
  let conn = Client.connect d.socket in
  let clock () = Bench.proc_cpu_s d.pid in
  let check t r =
    match reply_row r with
    | Error m -> Error (Printf.sprintf "serve %s: %s" t.key m)
    | Ok row -> Expected.check tbl ~what:"serve" ~key:t.key row
  in
  let region ?rec_ ~first seconds =
    let deal pass =
      Deck.pass ~seed ~index:(first + pass)
        ~vary:(fun _ t -> (t, t.req ~pass:(first + pass)))
        tmpls
    in
    Bench.run_passes ~seconds ~max_passes:(max_passes - first) ~clock ~collect:false ~deal
      ~op:(fun ~pass ~index (_, req) ->
        Span.maybe rec_ ~name:"rpc" ~op:((pass * 1000) + index) (fun () -> Client.rpc conn req))
      ~check:(fun (t, _) r -> check t r)
      ()
  in
  let s0 = stats c and client0 = Bench.cpu_s () and threads0 = Bench.proc_threads d.pid in
  let untraced = region ~first:0 (if trace then seconds /. 2.0 else seconds) in
  let client_cpu = Bench.cpu_s () -. client0 in
  let threads =
    List.map
      (fun (tid, (s1, n1)) ->
        let s0, n0 = Option.value (List.assoc_opt tid threads0) ~default:(0.0, 0) in
        Printf.sprintf "%.2f s/%d runs" (s1 -. s0) (n1 - n0))
      (Bench.proc_threads d.pid)
  in
  let s1 = stats c in
  let traced =
    if trace then begin
      let r = Span.recorder () in
      (* the traced half continues the pass sequence where the untraced
         half stopped, so its keys are still fresh *)
      let reg = region ~rec_:r ~first:untraced.Bench.passes (seconds /. 2.0) in
      Some (Span.spans r, reg, stats c)
    end
    else None
  in
  let peak_rss_mb = Bench.peak_rss_mb ~pid:d.pid () in
  Client.close conn;
  let passes = untraced.passes + match traced with Some (_, r, _) -> r.Bench.passes | None -> 0 in
  let s_end = match traced with Some (_, _, s) -> s | None -> s1 in
  finish ();
  let reference =
    List.filter_map
      (fun (t, _, r) ->
        match reply_row r with
        | Error m -> Some (Printf.sprintf "serve %s: in-process: %s" t.key m)
        | Ok row -> Expected.diff tbl ~what:"serve in-process" ~key:t.key row)
      (in_process tmpls [ passes - 1 ])
  in
  let checks =
    counter_checks tbl ~passes (counter_delta (counters s0) (counters s_end)) @ reference
  in
  let rtt = Stat.sorted_of_list (List.map (fun s -> s *. 1000.0) untraced.wall_samples) in
  let pct p = let pc = Stat.percentile rtt p in Printf.sprintf "%.3f" pc.Stat.value in
  { Bench.setup_s;
    region = untraced;
    traced = Option.map (fun (_, r, _) -> r) traced;
    peak_rss_mb;
    checks;
    evidence =
      [ ("client", "1 closed-loop, no retries");
        ("cache filesystem", filesystem cache_dir);
        ( "client wall-clock round trip",
          Printf.sprintf "p50 %s ms, p99 %s ms (client process cpu %.2f s)" (pct 0.5) (pct 0.99)
            client_cpu );
        ("per-pass mix", "24 memo, 5 parse, 6 sim, 2 disk, 4 fresh (41 requests)");
        ("daemon threads over the region", String.concat ", " threads) ];
    layers =
      (match traced with
      | None -> []
      | Some (spans, reg, s2) -> layers ~region:reg ~spans ~before:s1 ~after:s2);
    spans = (match traced with Some (spans, _, _) -> spans | None -> []) }

(* The table: every template's in-process answer (equal at three passes'
   block sizes), and the daemon's per-pass work counters, measured
   in-process on a pre-filled disk cache after the same warm-up. *)
let regen () =
  let tmpls = templates (texts ()) in
  let answers = in_process tmpls [ 0; 1; 2 ] in
  let rows = Hashtbl.create 64 in
  List.iter
    (fun (t, _, r) ->
      match reply_row r with
      | Error m -> failwith (Printf.sprintf "serve %s: %s" t.key m)
      | Ok row -> (
        match Hashtbl.find_opt rows t.key with
        | Some prev when prev <> row ->
          failwith (Printf.sprintf "serve %s: answer depends on the pass" t.key)
        | _ -> Hashtbl.replace rows t.key row))
    answers;
  let dir = Filename.concat Bench.out_dir "regen-serve" in
  Bench.rm_rf dir;
  Bench.mkdir_p dir;
  let handle d req =
    match Server.Daemon.handle d req with
    | Ok _ -> ()
    | Error e -> failwith ("serve regen: " ^ e.Proto.e_code)
  in
  let dc = Server.Diskcache.open_dir dir in
  let pre = Server.Daemon.create ~cache:dc (resolver ()) in
  List.iter (handle pre) (prefill_requests tmpls);
  Server.Diskcache.close dc;
  let dc = Server.Diskcache.open_dir dir in
  let d = Server.Daemon.create ~cache:dc (resolver ()) in
  List.iter (handle d) (warmup_requests tmpls);
  let deltas =
    List.map
      (fun pass ->
        let before = counters (Server.Daemon.stats_json d) in
        Array.iter (fun t -> handle d (t.req ~pass)) tmpls;
        counter_delta before (counters (Server.Daemon.stats_json d)))
      [ 0; 1; 2; 3 ]
  in
  Server.Diskcache.close dc;
  Bench.rm_rf dir;
  (match deltas with
  | first :: rest when List.for_all (( = ) first) rest ->
    Hashtbl.replace rows "pass"
      (List.filter_map
         (fun (k, v) -> if v = 0.0 then None else Some (k, Printf.sprintf "%.0f" v))
         first)
  | _ -> failwith "serve regen: per-pass counters differ between passes");
  Expected.save "serve"
    ~header:
      [ "serve: per request template, the in-process daemon's answer (the same";
        "at every pass's block sizes); row 'pass' holds the daemon's work";
        "counters for one pass after warm-up (absent counters are zero)." ]
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rows [] |> List.sort compare)
