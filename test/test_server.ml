(* The shackled daemon: wire framing, the persistent legality cache, the
   byte-level session machine, in-flight batching and cross-domain
   determinism.

   The load-bearing properties, in protocol order: the frame decoder is
   total (any byte string decodes to Got / Need_more / Corrupt, never an
   exception); the disk cache survives kill -9 at every byte boundary of
   a torn append, dropping exactly the torn tail and nothing else; a
   framing violation poisons a session (one error reply, then close)
   while frame-level garbage only costs that frame; identical requests
   produce byte-identical replies whatever the worker-domain count, and
   identical in-flight requests collapse to one solve. *)

module W = Server.Wire
module P = Server.Proto
module Dc = Server.Diskcache
module D = Server.Daemon
module Cl = Server.Client
module K = Kernels.Builders
module Metrics = Observe.Metrics
module Json = Observe.Json

let resolver () =
  { D.rv_kernels = (fun () -> K.all ());
    rv_spec =
      (fun ~kernel ~spec ~size -> Experiments.Specs.lookup ~kernel ~spec ~size);
    rv_params =
      (fun ~kernel ~n ->
        if String.equal kernel "cholesky_banded" then
          [ ("N", n); ("BW", max 1 (n / 3)) ]
        else [ ("N", n) ]);
    rv_init = (fun ~kernel ~n -> Kernels.Inits.for_kernel kernel ~n) }

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Wire framing                                                        *)
(* ------------------------------------------------------------------ *)

let test_wire_roundtrip () =
  let frame = W.encode ~op:W.Legal ~id:42 ~payload:"{\"k\":1}" in
  match W.decode frame with
  | W.Got (raw, consumed) ->
    Alcotest.(check int) "consumed" (String.length frame) consumed;
    Alcotest.(check int) "op" (W.opcode_byte W.Legal) raw.W.r_op;
    Alcotest.(check int) "id" 42 raw.W.r_id;
    Alcotest.(check string) "payload" "{\"k\":1}" raw.W.r_payload
  | _ -> Alcotest.fail "roundtrip did not decode"

let test_wire_incremental () =
  let frame = W.encode ~op:W.Stats ~id:7 ~payload:"{}" in
  (* every proper prefix must ask for exactly the missing bytes *)
  for n = 0 to String.length frame - 1 do
    match W.decode (String.sub frame 0 n) with
    | W.Need_more k ->
      let expect =
        if n < W.header_bytes then W.header_bytes - n
        else String.length frame - n
      in
      Alcotest.(check int) (Printf.sprintf "prefix %d" n) expect k
    | W.Got _ -> Alcotest.failf "prefix %d decoded a whole frame" n
    | W.Corrupt m -> Alcotest.failf "prefix %d corrupt: %s" n m
  done

let test_wire_pipelined () =
  let a = W.encode ~op:W.Stats ~id:1 ~payload:"{}" in
  let b = W.encode ~op:W.Shutdown ~id:2 ~payload:"{}" in
  match W.decode (a ^ b) with
  | W.Got (raw, consumed) ->
    Alcotest.(check int) "first frame only" (String.length a) consumed;
    Alcotest.(check int) "first id" 1 raw.W.r_id
  | _ -> Alcotest.fail "pipelined pair did not decode"

let test_wire_corrupt () =
  (match W.decode "XXXX_more_bytes_than_a_header" with
  | W.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic not diagnosed");
  (* oversized length prefix: header claims 0xffffff bytes *)
  let b = Bytes.of_string (W.encode ~op:W.Stats ~id:1 ~payload:"{}") in
  Bytes.set b 9 '\xff';
  Bytes.set b 10 '\xff';
  Bytes.set b 11 '\xff';
  (match W.decode (Bytes.to_string b) with
  | W.Corrupt msg ->
    Alcotest.(check bool) "names the length" true
      (String.length msg >= 14 && String.equal (String.sub msg 0 14) "payload length")
  | _ -> Alcotest.fail "oversized length not diagnosed")

let test_wire_unknown_opcode_decodes () =
  let frame = W.encode_raw { W.r_op = 0x55; r_id = 9; r_payload = "junk" } in
  match W.decode frame with
  | W.Got (raw, _) ->
    Alcotest.(check int) "opcode byte preserved" 0x55 raw.W.r_op;
    Alcotest.(check bool) "not a known opcode" true
      (Option.is_none (W.opcode_of_byte 0x55))
  | _ -> Alcotest.fail "unknown opcode must still frame"

let test_wire_decode_total =
  QCheck.Test.make ~count:1000 ~name:"decode never raises"
    QCheck.(string_of Gen.char)
    (fun s ->
      match W.decode s with
      | W.Got _ | W.Need_more _ | W.Corrupt _ -> true)

let test_wire_raw_roundtrip =
  QCheck.Test.make ~count:300 ~name:"encode_raw/decode roundtrip"
    QCheck.(triple (int_range 0 255) (int_range 0 0xFFFF) (string_of Gen.printable))
    (fun (op, id, payload) ->
      let raw = { W.r_op = op; r_id = id; r_payload = payload } in
      match W.decode (W.encode_raw raw) with
      | W.Got (raw', consumed) ->
        raw' = raw && consumed = W.header_bytes + String.length payload
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Disk cache                                                          *)
(* ------------------------------------------------------------------ *)

let test_cache_persistence () =
  let dir = temp_dir "shk-cache" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let a = Dc.open_dir dir in
  Dc.add a "system-one" true;
  Dc.add a "system-two" false;
  Dc.add a "system-one" true (* dedup: same digest appends nothing *);
  Alcotest.(check int) "entries" 2 (Dc.entries a);
  Alcotest.(check int) "appended" 2 (Dc.appended a);
  Dc.close a;
  (* a second handle — another process, a daemon restart — reads both *)
  let b = Dc.open_dir dir in
  Alcotest.(check int) "reloaded entries" 2 (Dc.entries b);
  Alcotest.(check int) "clean file" 0 (Dc.dropped_bytes b);
  Alcotest.(check (option bool)) "verdict one" (Some true) (Dc.find b "system-one");
  Alcotest.(check (option bool)) "verdict two" (Some false) (Dc.find b "system-two");
  Alcotest.(check (option bool)) "absent" None (Dc.find b "system-three");
  Alcotest.(check int) "hits counted" 2 (Dc.hits b);
  Alcotest.(check int) "misses counted" 1 (Dc.misses b);
  Dc.close b

let test_cache_torn_tail_every_boundary () =
  (* kill -9 mid-append at every byte boundary: the reopen must keep the
     two whole records and drop exactly the torn bytes *)
  for keep = 0 to Dc.record_bytes - 1 do
    let dir = temp_dir "shk-torn" in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let a = Dc.open_dir dir in
    Dc.add a "whole-one" true;
    Dc.add a "whole-two" false;
    Dc.add_torn a "torn-three" true ~keep;
    let b = Dc.open_dir dir in
    Alcotest.(check int) (Printf.sprintf "keep=%d entries" keep) 2 (Dc.entries b);
    Alcotest.(check int) (Printf.sprintf "keep=%d dropped" keep) keep
      (Dc.dropped_bytes b);
    Alcotest.(check (option bool)) "survivor one" (Some true) (Dc.find b "whole-one");
    Alcotest.(check (option bool)) "survivor two" (Some false) (Dc.find b "whole-two");
    Alcotest.(check (option bool)) "torn record gone" None (Dc.find b "torn-three");
    (* the truncation is physical: a third open sees a clean file *)
    Dc.close b;
    let c = Dc.open_dir dir in
    Alcotest.(check int) (Printf.sprintf "keep=%d clean reopen" keep) 0
      (Dc.dropped_bytes c);
    Dc.close c
  done

let test_cache_crc_corruption () =
  let dir = temp_dir "shk-crc" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let a = Dc.open_dir dir in
  Dc.add a "good" true;
  Dc.add a "flipped" false;
  let path = Dc.file a in
  Dc.close a;
  (* flip the last byte (inside the second record's CRC) on disk *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
  let size = (Unix.fstat fd).Unix.st_size in
  ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
  let b = Bytes.create 1 in
  let fd_r = Unix.openfile path [ Unix.O_RDONLY ] 0o600 in
  ignore (Unix.lseek fd_r (size - 1) Unix.SEEK_SET);
  ignore (Unix.read fd_r b 0 1);
  Unix.close fd_r;
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let c = Dc.open_dir dir in
  Alcotest.(check int) "only the intact record survives" 1 (Dc.entries c);
  Alcotest.(check int) "corrupt record dropped" Dc.record_bytes
    (Dc.dropped_bytes c);
  Alcotest.(check (option bool)) "good verdict intact" (Some true)
    (Dc.find c "good");
  Dc.close c

let test_cache_refuses_foreign_file () =
  let dir = temp_dir "shk-foreign" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let oc = open_out (Filename.concat dir Dc.filename) in
  output_string oc "this is not a legality cache, do not clobber me\n";
  close_out oc;
  match Dc.open_dir dir with
  | exception Failure _ -> ()
  | t ->
    Dc.close t;
    Alcotest.fail "foreign file silently accepted"

(* ------------------------------------------------------------------ *)
(* Session protocol machine                                            *)
(* ------------------------------------------------------------------ *)

let decode_one_reply out =
  match W.decode out with
  | W.Got (raw, consumed) ->
    Alcotest.(check int) "single reply frame" (String.length out) consumed;
    raw
  | _ -> Alcotest.fail "reply bytes do not frame"

let reply_error raw =
  match P.error_of_payload raw.W.r_payload with
  | Ok e -> e
  | Error m -> Alcotest.failf "undecodable error payload: %s" m

let test_session_unknown_opcode_keeps () =
  let srv = D.create (resolver ()) in
  let s = D.Session.create srv in
  let out, verdict =
    D.Session.feed s (W.encode_raw { W.r_op = 0x5A; r_id = 3; r_payload = "{}" })
  in
  (match verdict with
  | `Keep -> ()
  | `Close -> Alcotest.fail "unknown opcode must not poison the stream");
  let raw = decode_one_reply out in
  Alcotest.(check int) "id echoed" 3 raw.W.r_id;
  Alcotest.(check string) "code" "bad_opcode" (reply_error raw).P.e_code;
  (* the same session still answers a valid request *)
  let out, verdict = D.Session.feed s (W.encode ~op:W.Stats ~id:4 ~payload:"{}") in
  (match verdict with `Keep -> () | `Close -> Alcotest.fail "session died");
  let raw = decode_one_reply out in
  Alcotest.(check int) "ok op" (W.opcode_byte W.Reply_ok) raw.W.r_op

let test_session_bad_magic_closes () =
  let srv = D.create (resolver ()) in
  let s = D.Session.create srv in
  let out, verdict = D.Session.feed s "GARBAGE-not-a-frame" in
  (match verdict with
  | `Close -> ()
  | `Keep -> Alcotest.fail "bad magic must close");
  Alcotest.(check string) "code" "bad_magic" (reply_error (decode_one_reply out)).P.e_code

let test_session_oversized_closes () =
  let srv = D.create (resolver ()) in
  let s = D.Session.create srv in
  let b = Bytes.of_string (W.encode ~op:W.Stats ~id:1 ~payload:"{}") in
  Bytes.set b 9 '\xff';
  Bytes.set b 10 '\xff';
  Bytes.set b 11 '\xff';
  let out, verdict = D.Session.feed s (Bytes.to_string b) in
  (match verdict with `Close -> () | `Keep -> Alcotest.fail "oversized must close");
  Alcotest.(check string) "code" "oversized"
    (reply_error (decode_one_reply out)).P.e_code

let test_session_unknown_kernel () =
  let srv = D.create (resolver ()) in
  let s = D.Session.create srv in
  let out, verdict =
    D.Session.feed s
      (W.encode ~op:W.Legal ~id:8
         ~payload:
           (P.request_to_payload
              (P.Legal
                 { kernel = "nope"; spec = "c"; size = 8; budget_ms = None })))
  in
  (match verdict with `Keep -> () | `Close -> Alcotest.fail "request error must keep");
  let raw = decode_one_reply out in
  Alcotest.(check int) "id echoed" 8 raw.W.r_id;
  Alcotest.(check string) "code" "unknown_kernel" (reply_error raw).P.e_code

let test_session_shutdown_closes () =
  let srv = D.create (resolver ()) in
  let s = D.Session.create srv in
  let out, verdict = D.Session.feed s (W.encode ~op:W.Shutdown ~id:1 ~payload:"{}") in
  (match verdict with `Close -> () | `Keep -> Alcotest.fail "bye must close");
  let raw = decode_one_reply out in
  Alcotest.(check int) "ok reply" (W.opcode_byte W.Reply_ok) raw.W.r_op;
  Alcotest.(check bool) "server flagged" true (D.shutting_down srv);
  (* later requests are refused with shutting_down *)
  match D.handle srv P.Stats with
  | Error e -> Alcotest.(check string) "refusal code" "shutting_down" e.P.e_code
  | Ok _ -> Alcotest.fail "request served after shutdown"

let test_stats_json_shape () =
  let srv = D.create (resolver ()) in
  (match
     D.handle srv
       (P.Legal { kernel = "matmul"; spec = "c"; size = 8; budget_ms = None })
   with
  | Ok (P.R_verdict { verdict }) ->
    Alcotest.(check string) "matmul c is legal" "legal" verdict
  | Ok _ -> Alcotest.fail "unexpected reply shape"
  | Error e -> Alcotest.failf "legal failed: %s" e.P.e_message);
  let j = D.stats_json srv in
  (match Json.member "schema" j with
  | Some (Json.Str "shackled-stats/2") -> ()
  | _ -> Alcotest.fail "schema field");
  (match Json.member "solver" j with
  | Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail "solver counters missing");
  (match Json.member "solves" j with
  | Some (Json.Int n) -> Alcotest.(check bool) "solves accounted" true (n >= 0)
  | _ -> Alcotest.fail "solves field missing");
  match Json.member "diskcache" j with
  | Some Json.Null -> () (* no cache attached in this test *)
  | _ -> Alcotest.fail "cacheless daemon must report diskcache null"

(* ------------------------------------------------------------------ *)
(* Warm restart: the disk cache replaces every solve                   *)
(* ------------------------------------------------------------------ *)

let test_warm_restart_zero_solves () =
  let dir = temp_dir "shk-warm" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let ask srv =
    List.map
      (fun (kernel, spec, size) ->
        match D.handle srv (P.Legal { kernel; spec; size; budget_ms = None }) with
        | Ok (P.R_verdict { verdict }) -> verdict
        | Ok _ -> Alcotest.fail "unexpected reply shape"
        | Error e -> Alcotest.failf "%s/%s: %s" kernel spec e.P.e_message)
      [ ("matmul", "c", 8); ("matmul", "ca", 8); ("cholesky_right", "write", 6) ]
  in
  let cold_cache = Dc.open_dir dir in
  let cold = D.create ~cache:cold_cache (resolver ()) in
  let cold_verdicts = ask cold in
  let cold_m = Metrics.solver_of_ctx (D.solver cold) in
  Alcotest.(check bool) "cold run really solved" true
    (Metrics.solver_solves cold_m > 0);
  Dc.close cold_cache;
  (* a fresh process state on the same directory: same verdicts, no solves *)
  let warm_cache = Dc.open_dir dir in
  let warm = D.create ~cache:warm_cache (resolver ()) in
  let warm_verdicts = ask warm in
  let warm_m = Metrics.solver_of_ctx (D.solver warm) in
  Alcotest.(check (list string)) "verdicts identical" cold_verdicts warm_verdicts;
  Alcotest.(check int) "warm restart solves nothing" 0
    (Metrics.solver_solves warm_m);
  Alcotest.(check bool) "disk answered" true (Dc.hits warm_cache > 0);
  Dc.close warm_cache

(* ------------------------------------------------------------------ *)
(* In-flight batching and cross-domain determinism                     *)
(* ------------------------------------------------------------------ *)

let test_batching_collapses () =
  (* park the batch leader until both followers have attached, so the
     collapse is forced rather than racy: 3 identical requests, 1 solve,
     2 collapses *)
  let srv_ref = ref None in
  let hold _key =
    let srv = Option.get !srv_ref in
    let give_up = 1000 in
    let rec wait n =
      if Server.Stats.collapses (D.stats srv) < 2 && n > 0 then begin
        Unix.sleepf 0.005;
        wait (n - 1)
      end
    in
    wait give_up
  in
  let config = { D.default_config with D.cfg_hold = Some hold } in
  let srv = D.create ~config (resolver ()) in
  srv_ref := Some srv;
  let req =
    P.Legal { kernel = "matmul"; spec = "c"; size = 8; budget_ms = None }
  in
  let workers =
    Array.init 3 (fun _ -> Domain.spawn (fun () -> D.handle srv req))
  in
  let replies = Array.map Domain.join workers in
  Array.iter
    (fun r ->
      match r with
      | Ok (P.R_verdict { verdict }) ->
        Alcotest.(check string) "every reply legal" "legal" verdict
      | Ok _ -> Alcotest.fail "unexpected reply shape"
      | Error e -> Alcotest.failf "batched request failed: %s" e.P.e_message)
    replies;
  Alcotest.(check int) "two followers collapsed" 2
    (Server.Stats.collapses (D.stats srv));
  let m = Metrics.solver_of_ctx (D.solver srv) in
  Alcotest.(check bool) "leader solved at most once per system" true
    (Metrics.solver_solves m <= m.Metrics.so_queries)

let socket_roundtrips ~domains =
  let dir = temp_dir "shk-sock" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let socket = Filename.concat dir "d.sock" in
  let config = { D.default_config with D.cfg_domains = domains } in
  let srv = D.create ~config (resolver ()) in
  let server = Domain.spawn (fun () -> D.serve srv ~socket) in
  let rec wait n =
    if not (Sys.file_exists socket) then begin
      if n = 0 then Alcotest.fail "daemon did not come up";
      Unix.sleepf 0.02;
      wait (n - 1)
    end
  in
  wait 250;
  let queries =
    [ P.Legal { kernel = "matmul"; spec = "c"; size = 8; budget_ms = None };
      P.Probe { kernel = "matmul"; spec = "ca"; size = 8; budget_ms = None };
      P.Legal
        { kernel = "cholesky_right"; spec = "write"; size = 6;
          budget_ms = None } ]
  in
  (* 4 concurrent clients, each running the identical script *)
  let clients =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let c = Cl.connect socket in
            Fun.protect
              ~finally:(fun () -> Cl.close c)
              (fun () ->
                List.map
                  (fun q ->
                    match Cl.rpc c q with
                    | Ok (P.R_verdict { verdict }) -> verdict
                    | Ok _ -> "unexpected-shape"
                    | Error e -> "error:" ^ e.P.e_code)
                  queries)))
  in
  let transcripts = Array.map Domain.join clients in
  let stop = Cl.connect socket in
  ignore (Cl.rpc stop P.Shutdown);
  Cl.close stop;
  Domain.join server;
  Array.iter
    (fun t ->
      Alcotest.(check (list string))
        (Printf.sprintf "domains=%d: all clients agree" domains)
        transcripts.(0) t)
    transcripts;
  transcripts.(0)

let test_socket_determinism_across_domains () =
  let one = socket_roundtrips ~domains:1 in
  let two = socket_roundtrips ~domains:2 in
  let four = socket_roundtrips ~domains:4 in
  Alcotest.(check (list string)) "1 = 2 domains" one two;
  Alcotest.(check (list string)) "1 = 4 domains" one four;
  List.iter
    (fun v ->
      Alcotest.(check bool) "verdict, not an error" true
        (not (String.length v >= 6 && String.equal (String.sub v 0 6) "error:")))
    one

(* ------------------------------------------------------------------ *)
(* Admission control and deadlines                                     *)
(* ------------------------------------------------------------------ *)

let test_admission_sheds_deterministically () =
  (* park one admitted request at the high-water mark; the next request
     must be shed with a structured overloaded error carrying a
     retry-after hint, and the parked request must still complete *)
  let srv_ref = ref None in
  let hold _key =
    let srv = Option.get !srv_ref in
    let rec wait n =
      if Server.Stats.shed (D.stats srv) < 1 && n > 0 then begin
        Unix.sleepf 0.005;
        wait (n - 1)
      end
    in
    wait 1000
  in
  let config =
    { D.default_config with D.cfg_queue_high = 1; cfg_hold = Some hold }
  in
  let srv = D.create ~config (resolver ()) in
  srv_ref := Some srv;
  let parked =
    Domain.spawn (fun () ->
        D.handle srv
          (P.Legal { kernel = "matmul"; spec = "c"; size = 8; budget_ms = None }))
  in
  let rec wait_admitted n =
    if D.admitted_weight srv < 1 && n > 0 then begin
      Unix.sleepf 0.005;
      wait_admitted (n - 1)
    end
  in
  wait_admitted 1000;
  Alcotest.(check int) "one weight admitted" 1 (D.admitted_weight srv);
  (match
     D.handle srv
       (P.Legal { kernel = "matmul"; spec = "ca"; size = 8; budget_ms = None })
   with
  | Error e ->
    Alcotest.(check string) "shed code" "overloaded" e.P.e_code;
    (match e.P.e_retry_after_ms with
    | Some ms -> Alcotest.(check bool) "retry hint sane" true (ms >= 50)
    | None -> Alcotest.fail "overloaded must carry retry_after_ms")
  | Ok _ -> Alcotest.fail "request above high-water mark must shed");
  (match Domain.join parked with
  | Ok (P.R_verdict { verdict }) ->
    Alcotest.(check string) "parked request completes" "legal" verdict
  | Ok _ -> Alcotest.fail "unexpected reply shape"
  | Error e -> Alcotest.failf "parked request failed: %s" e.P.e_message);
  Alcotest.(check int) "exactly one shed" 1 (Server.Stats.shed (D.stats srv));
  Alcotest.(check int) "admission fully released" 0 (D.admitted_weight srv);
  (* stats (weight 0) is never shed, even at the high-water mark *)
  match D.handle srv P.Stats with
  | Ok (P.R_stats _) -> ()
  | _ -> Alcotest.fail "zero-weight stats must always be admitted"

let test_budget_deadline_exceeded () =
  (* hold the computation well past a tiny budget: the caller must see
     deadline_exceeded, never a stale success *)
  let config =
    { D.default_config with D.cfg_hold = Some (fun _ -> Unix.sleepf 0.06) }
  in
  let srv = D.create ~config (resolver ()) in
  (match
     D.handle srv
       (P.Legal
          { kernel = "matmul"; spec = "c"; size = 8; budget_ms = Some 5 })
   with
  | Error e ->
    Alcotest.(check string) "deadline code" "deadline_exceeded" e.P.e_code
  | Ok _ -> Alcotest.fail "expired budget must not produce a success");
  (* the same request without a budget succeeds on the same server *)
  match
    D.handle srv
      (P.Legal { kernel = "matmul"; spec = "c"; size = 8; budget_ms = None })
  with
  | Ok (P.R_verdict { verdict }) ->
    Alcotest.(check string) "budget-less request fine" "legal" verdict
  | Ok _ -> Alcotest.fail "unexpected reply shape"
  | Error e -> Alcotest.failf "budget-less request failed: %s" e.P.e_message

(* ------------------------------------------------------------------ *)
(* Hostile clients against a live socket                               *)
(* ------------------------------------------------------------------ *)

let with_served_daemon ?(config = D.default_config) f =
  let dir = temp_dir "shk-live" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let socket = Filename.concat dir "d.sock" in
  let srv = D.create ~config (resolver ()) in
  let server = Domain.spawn (fun () -> D.serve srv ~socket) in
  let rec wait n =
    if not (Sys.file_exists socket) then begin
      if n = 0 then Alcotest.fail "daemon did not come up";
      Unix.sleepf 0.02;
      wait (n - 1)
    end
  in
  wait 250;
  Fun.protect
    ~finally:(fun () ->
      (match Cl.connect socket with
      | stop ->
        ignore (Cl.rpc stop P.Shutdown);
        Cl.close stop
      | exception Unix.Unix_error _ -> D.shutdown srv);
      Domain.join server)
    (fun () -> f ~socket ~srv)

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let test_mid_frame_disconnect_keeps_serving () =
  with_served_daemon (fun ~socket ~srv:_ ->
      (* a client hangs up mid-frame... *)
      let fd = raw_connect socket in
      let frame =
        W.encode ~op:W.Legal ~id:9
          ~payload:
            (P.request_to_payload
               (P.Legal
                  { kernel = "matmul"; spec = "c"; size = 8; budget_ms = None }))
      in
      ignore (Unix.write_substring fd frame 0 (String.length frame / 2));
      Unix.close fd;
      (* ...and the daemon keeps answering fresh clients *)
      let c = Cl.connect socket in
      Fun.protect
        ~finally:(fun () -> Cl.close c)
        (fun () ->
          match
            Cl.rpc c
              (P.Legal
                 { kernel = "matmul"; spec = "c"; size = 8; budget_ms = None })
          with
          | Ok (P.R_verdict { verdict }) ->
            Alcotest.(check string) "daemon survives the disconnect" "legal"
              verdict
          | Ok _ -> Alcotest.fail "unexpected reply shape"
          | Error e -> Alcotest.failf "post-disconnect rpc failed: %s" e.P.e_message))

let test_slow_writer_evicted () =
  (* a slowloris client parks mid-frame; the daemon must evict it at the
     frame deadline while still serving others *)
  let config =
    { D.default_config with D.cfg_frame_timeout_ms = Some 100 }
  in
  with_served_daemon ~config (fun ~socket ~srv ->
      let fd = raw_connect socket in
      let frame = W.encode ~op:W.Stats ~id:3 ~payload:"{}" in
      ignore (Unix.write_substring fd frame 0 5);
      (* the daemon closes us; a blocking read sees EOF well before 5 s *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      let buf = Bytes.create 64 in
      (match Unix.read fd buf 0 64 with
      | 0 -> ()
      | n -> Alcotest.failf "expected eviction EOF, got %d bytes" n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.fail "slow writer was not evicted at the frame deadline"
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ());
      Unix.close fd;
      Alcotest.(check bool) "eviction counted" true
        (Server.Stats.evicted (D.stats srv) >= 1);
      (* well-behaved clients are unaffected *)
      let c = Cl.connect socket in
      Fun.protect
        ~finally:(fun () -> Cl.close c)
        (fun () ->
          match Cl.rpc c P.Stats with
          | Ok (P.R_stats _) -> ()
          | _ -> Alcotest.fail "daemon must keep serving after an eviction"))

(* ------------------------------------------------------------------ *)
(* Cache self-healing: compaction and quarantine                       *)
(* ------------------------------------------------------------------ *)

let test_cache_compaction_dedupes () =
  let dir = temp_dir "shk-compact" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* two concurrent handles (two daemon processes) append overlapping
     verdicts: the file accretes duplicates *)
  let a = Dc.open_dir dir in
  let b = Dc.open_dir dir in
  List.iter (fun (d, v) -> Dc.add a d v)
    [ ("sys-1", true); ("sys-2", false); ("sys-3", true) ];
  List.iter (fun (d, v) -> Dc.add b d v)
    [ ("sys-1", true); ("sys-2", false); ("sys-4", true) ];
  let fat = Dc.bytes_on_disk a + (2 * Dc.record_bytes) in
  Dc.close a;
  Dc.close b;
  (* reopen: the heal pass rewrites the file without the duplicates *)
  let c = Dc.open_dir dir in
  Alcotest.(check int) "entries deduped" 4 (Dc.entries c);
  Alcotest.(check bool) "file shrank" true (Dc.bytes_on_disk c < fat);
  List.iter
    (fun (d, v) ->
      Alcotest.(check (option bool)) d (Some v) (Dc.find c d))
    [ ("sys-1", true); ("sys-2", false); ("sys-3", true); ("sys-4", true) ];
  (* explicit compaction on a healed file is a no-op, and answers are
     unchanged afterwards *)
  let before, after = Dc.compact c in
  Alcotest.(check int) "idempotent compaction" before after;
  Alcotest.(check (option bool)) "still answers" (Some false)
    (Dc.find c "sys-2");
  Dc.close c;
  let d = Dc.open_dir dir in
  Alcotest.(check int) "clean reopen" 0 (Dc.dropped_bytes d);
  Alcotest.(check (option bool)) "survives reopen" (Some true)
    (Dc.find d "sys-4");
  Dc.close d

let test_cache_quarantines_corrupt_span () =
  let dir = temp_dir "shk-quarantine" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let a = Dc.open_dir dir in
  Dc.add a "first" true;
  Dc.add a "second" false;
  Dc.add a "third" true;
  let path = Dc.file a in
  Dc.close a;
  (* flip a byte inside the MIDDLE record: a span, not a torn tail *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
  let off = 16 + Dc.record_bytes + 3 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x5A));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let c = Dc.open_dir dir in
  Alcotest.(check int) "survivors reloaded" 2 (Dc.entries c);
  Alcotest.(check (option bool)) "first survives" (Some true)
    (Dc.find c "first");
  Alcotest.(check (option bool)) "third survives" (Some true)
    (Dc.find c "third");
  Alcotest.(check (option bool)) "corrupt span skipped" None
    (Dc.find c "second");
  Alcotest.(check int) "one span quarantined" 1 (Dc.quarantined_spans c);
  Alcotest.(check int) "span bytes accounted" Dc.record_bytes
    (Dc.quarantined_bytes c);
  Alcotest.(check bool) "quarantine sidecar exists" true
    (Sys.file_exists (Dc.quarantine_file c));
  Dc.close c;
  (* the heal was physical: a reopen is clean and byte-stable *)
  let d = Dc.open_dir dir in
  Alcotest.(check int) "clean reopen" 0 (Dc.dropped_bytes d);
  Alcotest.(check int) "survivors stable" 2 (Dc.entries d);
  Dc.close d

(* ------------------------------------------------------------------ *)
(* Report schema versions                                              *)
(* ------------------------------------------------------------------ *)

(* Older versions of a known family are not migrated: a document that
   validates under its current tag is refused, with the registry's
   structured "unknown report schema" error, once it carries an older
   one. *)
let test_old_schema_versions_refused () =
  let retag tag = function
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if String.equal k "schema" then (k, Json.Str tag) else (k, v))
           fields)
    | j -> j
  in
  let stats = D.stats_json (D.create (resolver ())) in
  let tune =
    Tune.report_to_json
      (Tune.tune
         ~options:{ Tune.default_options with sizes = [ 8 ] }
         ~kernel:"matmul"
         ~params:[ ("N", 16) ]
         (K.matmul ()))
  in
  let fuzz =
    Json.Obj
      ([ ("schema", Json.Str Report.fuzz_report) ]
      @ List.map
          (fun k -> (k, Json.Int 0))
          [ "first_seed"; "seeds"; "specs"; "legal_specs"; "verified";
            "skipped"; "tune_checked"; "par_checked"; "wire_checked";
            "stage_checked"; "bound_checked"; "chaos_checked"; "gave_up" ]
      @ [ ("quick", Json.Bool true); ("timeout_ms", Json.Null);
          ("fuel", Json.Null); ("inject", Json.Str "none");
          ("failures", Json.List []) ])
  in
  List.iter
    (fun (doc, current, old) ->
      (match Report.check doc with
      | Ok tag -> Alcotest.(check string) "current tag validates" current tag
      | Error msg -> Alcotest.failf "%s document does not validate: %s" current msg);
      match Report.check (retag old doc) with
      | Ok tag -> Alcotest.failf "%s accepted as %s" old tag
      | Error msg ->
        Alcotest.(check string) (old ^ " refused")
          (Printf.sprintf "unknown report schema %S" old)
          msg)
    [ (tune, Report.tune_report, "tune-report/3");
      (fuzz, Report.fuzz_report, "fuzz-report/6");
      (fuzz, Report.fuzz_report, "fuzz-report/7");
      (stats, Report.shackled_stats, "shackled-stats/1") ]

let test_stats_v2_roundtrip () =
  (* the daemon's own snapshot must validate against the registry *)
  let srv = D.create (resolver ()) in
  (match
     D.handle srv
       (P.Legal { kernel = "matmul"; spec = "c"; size = 8; budget_ms = None })
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "legal failed: %s" e.P.e_message);
  ignore
    (D.handle srv
       (P.Legal { kernel = "nope"; spec = "c"; size = 8; budget_ms = None }));
  match Report.check (D.stats_json srv) with
  | Ok tag -> Alcotest.(check string) "validates" "shackled-stats/2" tag
  | Error msg -> Alcotest.failf "live stats do not validate: %s" msg

(* ------------------------------------------------------------------ *)
(* Replay harness smoke                                                *)
(* ------------------------------------------------------------------ *)

let test_replay_trace_roundtrip () =
  let pool =
    [ P.Legal { kernel = "matmul"; spec = "c"; size = 8; budget_ms = None };
      P.Probe
        { kernel = "matmul"; spec = "ca"; size = 8; budget_ms = Some 250 };
      P.Stats ]
  in
  let trace =
    Server.Replay.gen_trace ~seed:5 ~clients:3 ~requests:40 ~pool
  in
  let file = Filename.temp_file "shk-trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Server.Replay.save_trace file trace;
  match Server.Replay.load_trace file with
  | Error msg -> Alcotest.failf "trace does not load back: %s" msg
  | Ok trace' ->
    Alcotest.(check int) "length preserved" (List.length trace)
      (List.length trace');
    List.iter2
      (fun a b ->
        Alcotest.(check int) "client preserved" a.Server.Replay.ev_client
          b.Server.Replay.ev_client;
        Alcotest.(check string) "request preserved"
          (P.request_key a.Server.Replay.ev_req)
          (P.request_key b.Server.Replay.ev_req))
      trace trace'

let test_replay_through_chaos_proxy () =
  with_served_daemon (fun ~socket ~srv:_ ->
      let module R = Server.Replay in
      let proxy_sock = socket ^ ".chaos" in
      let proxy =
        R.proxy_start ~upstream:socket ~socket:proxy_sock ~seed:3
          ~chaos:R.default_chaos
      in
      Fun.protect ~finally:(fun () -> R.proxy_stop proxy) @@ fun () ->
      let pool =
        [ P.Legal { kernel = "matmul"; spec = "c"; size = 8; budget_ms = None };
          P.Probe { kernel = "matmul"; spec = "ca"; size = 8; budget_ms = None };
          P.Legal { kernel = "nope"; spec = "c"; size = 8; budget_ms = None };
          P.Stats ]
      in
      let trace = R.gen_trace ~seed:3 ~clients:3 ~requests:60 ~pool in
      let outcome = R.drive ~socket:proxy_sock ~seed:3 ~clients:3 trace in
      (* every event got a structured outcome: completions plus counted
         errors must cover the whole trace *)
      let errored =
        List.fold_left (fun acc (_, n) -> acc + n) 0 outcome.R.o_errors
      in
      Alcotest.(check int) "every request accounted" (List.length trace)
        (outcome.R.o_completed + errored);
      Alcotest.(check bool) "chaos proxy really interfered" true
        (let s, p, _ = R.proxy_counts proxy in
         s + p > 0);
      let j =
        R.report_json ~seed:3 ~clients:3 ~requests:(List.length trace)
          outcome ~chaos:(R.proxy_counts proxy) ~cold:None ~warm:None
      in
      match Report.check j with
      | Ok tag ->
        Alcotest.(check string) "load report validates" "server-load-report/1"
          tag
      | Error msg -> Alcotest.failf "load report does not validate: %s" msg)

(* ------------------------------------------------------------------ *)
(* The wire storm battery                                              *)
(* ------------------------------------------------------------------ *)

let test_wire_storm_battery () =
  (* >= 200 mutated frames against a daemon serving matmul's own lattice:
     no exceptions, structured replies only, deterministic replays *)
  match Fuzzing.Wire.storm ~frames:200 ~seed:20260809 (K.matmul ()) with
  | Ok (n, chaos) ->
    Alcotest.(check bool) "frames checked" true (n >= 200);
    Alcotest.(check bool) "chaos schedules survived" true (chaos > 0)
  | Error msg -> Alcotest.failf "storm found a protocol violation: %s" msg

let () =
  Alcotest.run "server"
    [ ( "wire",
        [ Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "incremental need-more" `Quick test_wire_incremental;
          Alcotest.test_case "pipelined frames" `Quick test_wire_pipelined;
          Alcotest.test_case "corrupt diagnoses" `Quick test_wire_corrupt;
          Alcotest.test_case "unknown opcode frames" `Quick
            test_wire_unknown_opcode_decodes;
          QCheck_alcotest.to_alcotest test_wire_decode_total;
          QCheck_alcotest.to_alcotest test_wire_raw_roundtrip ] );
      ( "diskcache",
        [ Alcotest.test_case "persists across handles" `Quick
            test_cache_persistence;
          Alcotest.test_case "torn tail at every byte boundary" `Quick
            test_cache_torn_tail_every_boundary;
          Alcotest.test_case "CRC corruption dropped" `Quick
            test_cache_crc_corruption;
          Alcotest.test_case "refuses a foreign file" `Quick
            test_cache_refuses_foreign_file ] );
      ( "session",
        [ Alcotest.test_case "unknown opcode keeps the connection" `Quick
            test_session_unknown_opcode_keeps;
          Alcotest.test_case "bad magic closes" `Quick test_session_bad_magic_closes;
          Alcotest.test_case "oversized length closes" `Quick
            test_session_oversized_closes;
          Alcotest.test_case "unknown kernel is a frame error" `Quick
            test_session_unknown_kernel;
          Alcotest.test_case "shutdown says bye and refuses" `Quick
            test_session_shutdown_closes;
          Alcotest.test_case "stats json shape" `Quick test_stats_json_shape ] );
      ( "cache-recovery",
        [ Alcotest.test_case "warm restart solves nothing" `Quick
            test_warm_restart_zero_solves ] );
      ( "self-healing",
        [ Alcotest.test_case "compaction dedupes and shrinks" `Quick
            test_cache_compaction_dedupes;
          Alcotest.test_case "corrupt span quarantined" `Quick
            test_cache_quarantines_corrupt_span ] );
      ( "overload",
        [ Alcotest.test_case "deterministic shedding" `Quick
            test_admission_sheds_deterministically;
          Alcotest.test_case "budget deadline exceeded" `Quick
            test_budget_deadline_exceeded;
          Alcotest.test_case "mid-frame disconnect keeps serving" `Quick
            test_mid_frame_disconnect_keeps_serving;
          Alcotest.test_case "slow writer evicted" `Quick
            test_slow_writer_evicted ] );
      ( "schema",
        [ Alcotest.test_case "older versions are refused" `Quick
            test_old_schema_versions_refused;
          Alcotest.test_case "live stats validate as /2" `Quick
            test_stats_v2_roundtrip ] );
      ( "replay",
        [ Alcotest.test_case "trace roundtrips" `Quick
            test_replay_trace_roundtrip;
          Alcotest.test_case "drive through chaos proxy" `Quick
            test_replay_through_chaos_proxy ] );
      ( "concurrency",
        [ Alcotest.test_case "in-flight batching collapses" `Quick
            test_batching_collapses;
          Alcotest.test_case "determinism across 1/2/4 domains" `Quick
            test_socket_determinism_across_domains ] );
      ( "storm",
        [ Alcotest.test_case "200-frame battery" `Quick test_wire_storm_battery ] ) ]
