(* Wire-protocol robustness layer.  Everything runs in-process against
   Server.Daemon.Session — no socket, no domains — so a storm is cheap
   enough to run per fuzz seed and fully deterministic. *)

module Ast = Loopir.Ast
module D = Server.Daemon
module W = Server.Wire
module P = Server.Proto
module Cl = Server.Client

let ( let* ) = Result.bind

let init name idx =
  let h = ref 0 in
  String.iter (fun c -> h := ((!h * 131) + Char.code c) land 0xFFFFF) name;
  Array.iter (fun i -> h := ((!h * 131) + i + 7) land 0xFFFFF) idx;
  0.25 +. (float_of_int (!h mod 101) /. 101.0)

(* The generated program's own single-factor lattice, named s0, s1, ... —
   the daemon under test resolves specs the way the production daemon
   resolves "matmul"/"c", but against this seed's program. *)
let resolver prog =
  let specs_at size =
    Shackle.Search.singles prog
      ~arrays:(Shackle.Search.default_arrays prog)
      ~blockings:(fun array -> [ Shackle.Blocking.blocks_2d ~array ~size ])
  in
  { D.rv_kernels = (fun () -> [ ("gen", prog) ]);
    rv_spec =
      (fun ~kernel ~spec ~size ->
        if not (String.equal kernel "gen") then None
        else if String.length spec < 2 || spec.[0] <> 's' then None
        else
          Option.bind
            (int_of_string_opt (String.sub spec 1 (String.length spec - 1)))
            (fun i -> List.nth_opt (specs_at size) i));
    rv_params = (fun ~kernel:_ ~n -> [ ("N", n) ]);
    rv_init = (fun ~kernel:_ ~n:_ -> init) }

(* ------------------------------------------------------------------ *)
(* Reply-stream validation                                             *)
(* ------------------------------------------------------------------ *)

(* One reply frame must be a Reply_ok or Reply_err with a decodable
   payload; [Ok true] for Reply_ok, [Ok false] for Reply_err. *)
let check_reply raw =
  match W.opcode_of_byte raw.W.r_op with
  | Some W.Reply_ok -> (
    match P.reply_of_payload ~op:W.Reply_ok raw.W.r_payload with
    | Ok _ -> Ok true
    | Error msg -> Error ("undecodable Reply_ok payload: " ^ msg))
  | Some W.Reply_err -> (
    match P.error_of_payload raw.W.r_payload with
    | Ok _ -> Ok false
    | Error msg -> Error ("undecodable Reply_err payload: " ^ msg))
  | _ ->
    Error (Printf.sprintf "server emitted non-reply opcode 0x%02x" raw.W.r_op)

(* Every byte a session emits must parse as complete reply frames that
   pass [check_reply]; [Ok n] counted n frames. *)
let check_reply_stream bytes =
  let rec go buf n =
    if String.length buf = 0 then Ok n
    else
      match W.decode buf with
      | W.Need_more k ->
        Error
          (Printf.sprintf
             "reply stream ends with a truncated frame (%d bytes short)" k)
      | W.Corrupt msg -> Error ("reply stream is corrupt: " ^ msg)
      | W.Got (raw, consumed) ->
        let* _ = check_reply raw in
        go (String.sub buf consumed (String.length buf - consumed)) (n + 1)
  in
  go bytes 0

(* ------------------------------------------------------------------ *)
(* Frame mutations                                                     *)
(* ------------------------------------------------------------------ *)

let valid_frames prog_text =
  [ W.encode ~op:W.Stats ~id:1 ~payload:"{}";
    W.encode ~op:W.Parse ~id:2
      ~payload:
        (P.request_to_payload (P.Parse { text = prog_text }));
    W.encode ~op:W.Parse ~id:3 ~payload:"{\"text\":\"do i = \"}";
    W.encode ~op:W.Probe ~id:4
      ~payload:
        (P.request_to_payload
           (P.Probe { kernel = "gen"; spec = "s0"; size = 3; budget_ms = None }));
    W.encode ~op:W.Legal ~id:5
      ~payload:
        (P.request_to_payload
           (P.Legal { kernel = "gen"; spec = "s1"; size = 2; budget_ms = None }));
    W.encode ~op:W.Legal ~id:6
      ~payload:
        (P.request_to_payload
           (P.Legal { kernel = "nope"; spec = "s0"; size = 4; budget_ms = None }))
  ]

let mutate rng frame =
  match Rng.int rng 7 with
  | 0 ->
    (* flip one byte anywhere *)
    let b = Bytes.of_string frame in
    Bytes.set b (Rng.int rng (Bytes.length b)) (Char.chr (Rng.int rng 256));
    Bytes.to_string b
  | 1 ->
    (* unknown opcode under intact framing *)
    let b = Bytes.of_string frame in
    Bytes.set b 4 (Char.chr (Rng.range rng 0x08 0x7f));
    Bytes.to_string b
  | 2 ->
    (* oversized length prefix *)
    let b = Bytes.of_string frame in
    Bytes.set b 9 '\xff';
    Bytes.set b 10 '\xff';
    Bytes.set b 11 '\xff';
    Bytes.to_string b
  | 3 ->
    (* truncation: mid-header or mid-payload *)
    String.sub frame 0 (Rng.int rng (String.length frame))
  | 4 ->
    (* garbage payload under a correct header *)
    let b = Bytes.of_string frame in
    for i = W.header_bytes to Bytes.length b - 1 do
      Bytes.set b i (Char.chr (Rng.int rng 256))
    done;
    Bytes.to_string b
  | 5 ->
    (* leading garbage: the magic check must trip immediately *)
    String.make (Rng.range rng 1 4) (Char.chr (Rng.int rng 256)) ^ frame
  | _ -> frame (* unmodified — the storm must not break valid traffic *)

(* ------------------------------------------------------------------ *)
(* The storm                                                           *)
(* ------------------------------------------------------------------ *)

let feed_checked session bytes =
  match D.Session.feed session bytes with
  | out, verdict -> (
    match check_reply_stream out with
    | Ok n -> Ok (n, verdict)
    | Error _ as e -> e)
  | exception exn ->
    Error ("session raised " ^ Printexc.to_string exn)

let storm ~seed prog =
  let frames = 200 in
  let rng = Rng.create seed in
  let srv = D.create (resolver prog) in
  let prog_text = Ast.program_to_string prog in
  let pool = valid_frames prog_text in
  let session = ref (D.Session.create srv) in
  let checked = ref 0 in
  let rec run i =
    if i >= frames then Ok ()
    else
      let frame = mutate rng (Rng.pick rng pool) in
      (* occasionally pipeline two frames into one feed *)
      let frame =
        if Rng.int rng 5 = 0 then frame ^ Rng.pick rng pool else frame
      in
      match feed_checked !session frame with
      | Error msg -> Error (Printf.sprintf "frame %d: %s" i msg)
      | Ok (_, verdict) ->
        incr checked;
        (* a poisoned stream closes; later bytes need a fresh session *)
        (match verdict with
        | `Close -> session := D.Session.create srv
        | `Keep -> ());
        run (i + 1)
  in
  let determinism () =
    (* byte-identical requests through fresh sessions must produce
       byte-identical replies; stats is exempt (a live snapshot) *)
    let pool =
      List.filter
        (fun f -> Char.code f.[4] <> W.opcode_byte W.Stats)
        pool
    in
    let rec go = function
      | [] -> Ok ()
      | frame :: rest -> (
        let once () =
          match D.Session.feed (D.Session.create srv) frame with
          | out, _ -> Ok out
          | exception exn -> Error (Printexc.to_string exn)
        in
        match (once (), once ()) with
        | Ok a, Ok b when String.equal a b ->
          incr checked;
          go rest
        | Ok _, Ok _ ->
          Error "identical queries produced different reply bytes"
        | Error msg, _ | _, Error msg -> Error ("determinism pass: " ^ msg))
    in
    go pool
  in
  (* Chaos pass: the same frames under hostile delivery schedules drawn
     from the seed — dribbled writes (a stalling client), mid-frame
     abandonment (a disconnect), and two interleaved slow sessions.  The
     properties checked are the storm's (total, structured) plus one
     more: a reply must materialize exactly once the last byte of its
     frame arrives, never early, never corrupted by how the bytes were
     chopped. *)
  let chaos = ref 0 in
  let chaos_pass () =
    let requests =
      List.filter (fun f -> Char.code f.[4] <> W.opcode_byte W.Stats) pool
    in
    (* 1. dribble: every frame delivered in seeded 1-3 byte pieces must
       answer identically to the same frame delivered whole *)
    let rec dribble_all = function
      | [] -> Ok ()
      | frame :: rest -> (
        let whole =
          match D.Session.feed (D.Session.create srv) frame with
          | out, _ -> Ok out
          | exception exn -> Error (Printexc.to_string exn)
        in
        let dribbled =
          let s = D.Session.create srv in
          let out = Buffer.create 64 in
          let rec go off =
            if off >= String.length frame then Ok (Buffer.contents out)
            else
              let n = min (Rng.range rng 1 3) (String.length frame - off) in
              match D.Session.feed s (String.sub frame off n) with
              | piece_out, _ ->
                (* no reply bytes may appear before the frame completes *)
                if off + n < String.length frame && piece_out <> "" then
                  Error "reply emitted before the frame was complete"
                else begin
                  Buffer.add_string out piece_out;
                  go (off + n)
                end
              | exception exn -> Error (Printexc.to_string exn)
          in
          go 0
        in
        match (whole, dribbled) with
        | Ok a, Ok b when String.equal a b ->
          incr chaos;
          dribble_all rest
        | Ok _, Ok _ -> Error "dribbled delivery changed the reply bytes"
        | Error msg, _ | _, Error msg -> Error ("dribble: " ^ msg))
    in
    (* 2. mid-frame abandonment: a client hanging up mid-frame must leave
       the daemon serving fresh sessions *)
    let abandon () =
      let frame = Rng.pick rng requests in
      let keep = Rng.range rng 1 (String.length frame - 1) in
      (match D.Session.feed (D.Session.create srv) (String.sub frame 0 keep) with
      | _ -> ()
      | exception exn ->
        failwith ("abandoned session raised " ^ Printexc.to_string exn));
      (* the abandoned session is simply dropped; a fresh one must work *)
      match feed_checked (D.Session.create srv) (Rng.pick rng requests) with
      | Ok _ ->
        incr chaos;
        Ok ()
      | Error msg -> Error ("post-abandon: " ^ msg)
    in
    (* 3. interleaving: two slow sessions taking turns byte-wise; each
       reply stream must stay structured *)
    let interleave () =
      let fa = Rng.pick rng requests and fb = Rng.pick rng requests in
      let sa = D.Session.create srv and sb = D.Session.create srv in
      let oa = Buffer.create 64 and ob = Buffer.create 64 in
      let rec go i j =
        if i >= String.length fa && j >= String.length fb then Ok ()
        else begin
          let stepped_a =
            if i < String.length fa && (j >= String.length fb || Rng.int rng 2 = 0)
            then begin
              match D.Session.feed sa (String.make 1 fa.[i]) with
              | out, _ ->
                Buffer.add_string oa out;
                true
              | exception exn ->
                failwith ("interleaved session raised " ^ Printexc.to_string exn)
            end
            else false
          in
          if stepped_a then go (i + 1) j
          else begin
            match D.Session.feed sb (String.make 1 fb.[j]) with
            | out, _ ->
              Buffer.add_string ob out;
              go i (j + 1)
            | exception exn ->
              failwith ("interleaved session raised " ^ Printexc.to_string exn)
          end
        end
      in
      let* () = go 0 0 in
      let* _ = check_reply_stream (Buffer.contents oa) in
      let* _ = check_reply_stream (Buffer.contents ob) in
      incr chaos;
      Ok ()
    in
    let* () = dribble_all requests in
    let rec rounds k =
      if k = 0 then Ok ()
      else
        let* () = abandon () in
        let* () = interleave () in
        rounds (k - 1)
    in
    rounds 4
  in
  match run 0 with
  | Error _ as e -> e
  | Ok () -> (
    match determinism () with
    | Error _ as e -> e
    | Ok () -> (
      match chaos_pass () with
      | Error _ as e -> e
      | Ok () -> Ok (!checked, !chaos)
      | exception Failure msg -> Error ("chaos: " ^ msg)))

(* ------------------------------------------------------------------ *)
(* The socket burst                                                    *)
(* ------------------------------------------------------------------ *)

type burst = { b_sent : int; b_ok : int; b_err : int; b_hangups : int }

(* What the daemon owes for [bytes] sent at a frame boundary, by the
   decoder the daemon itself runs: one reply per complete frame; a
   [Corrupt] stretch earns one error reply, then the daemon hangs up; a
   trailing partial frame earns nothing (the daemon waits for the rest).
   Returns the reply count, whether the stream is still usable
   afterwards, and the opcode bytes of the complete frames. *)
let owed bytes =
  let rec go buf n ops =
    match W.decode buf with
    | W.Got (raw, consumed) ->
      go
        (String.sub buf consumed (String.length buf - consumed))
        (n + 1) (raw.W.r_op :: ops)
    | W.Corrupt _ -> (n + 1, false, ops)
    | W.Need_more _ -> (n, String.length buf = 0, ops)
  in
  go bytes 0 []

let burst ~socket ~seed ~frames =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let rng = Rng.create seed in
  let pool =
    valid_frames
      (Ast.program_to_string (Gen.program ~quick:true (Rng.split rng)))
  in
  (* a mutation that happens to spell a Shutdown frame would stop the
     daemon under test: draw again *)
  let rec draw () =
    let bytes = mutate rng (Rng.pick rng pool) in
    let replies, usable, ops = owed bytes in
    if List.mem (W.opcode_byte W.Shutdown) ops then draw ()
    else (bytes, replies, usable)
  in
  let conn = ref (Cl.connect socket) in
  let ok = ref 0 and err = ref 0 and hangups = ref 0 in
  for i = 1 to frames do
    let bytes, replies, usable = draw () in
    (match Cl.exchange !conn bytes ~replies with
    | Error msg ->
      failwith
        (Printf.sprintf "burst frame %d: %d replies owed, %s" i replies msg)
    | Ok raws ->
      List.iter
        (fun raw ->
          match check_reply raw with
          | Ok true -> incr ok
          | Ok false -> incr err
          | Error msg -> failwith (Printf.sprintf "burst frame %d: %s" i msg))
        raws);
    if not usable then begin
      Cl.close !conn;
      incr hangups;
      conn := Cl.connect socket
    end
  done;
  Cl.close !conn;
  (* liveness proof: a clean round-trip after the burst *)
  let c = Cl.connect socket in
  (match Cl.rpc c P.Stats with
  | Ok (P.R_stats _) -> ()
  | Ok _ | Error _ -> failwith "burst: daemon unhealthy after the burst");
  Cl.close c;
  { b_sent = frames; b_ok = !ok; b_err = !err; b_hangups = !hangups }
