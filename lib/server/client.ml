(* Blocking shackled/1 client.  Reads accumulate into a string buffer and
   frames are peeled off with the same total decoder the server uses. *)

type t = {
  fd : Unix.file_descr;
  mutable rbuf : string;
  mutable next_id : int;
}

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; rbuf = ""; next_id = 1 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Short writes are looped and EINTR (a signal landing mid-syscall) is
   retried — a partial frame on the wire would desync the whole
   connection. *)
let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring fd s !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let read_frame t =
  let chunk = Bytes.create 65536 in
  let rec loop () =
    match Wire.decode t.rbuf with
    | Wire.Got (raw, consumed) ->
      t.rbuf <- String.sub t.rbuf consumed (String.length t.rbuf - consumed);
      Ok raw
    | Wire.Corrupt msg -> Error ("corrupt reply stream: " ^ msg)
    | Wire.Need_more _ -> (
      match Unix.read t.fd chunk 0 (Bytes.length chunk) with
      | 0 -> Error "connection closed"
      | n ->
        t.rbuf <- t.rbuf ^ Bytes.sub_string chunk 0 n;
        loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (e, _, _) ->
        Error ("read: " ^ Unix.error_message e))
  in
  loop ()

let send t bytes =
  match write_all t.fd bytes with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
    Error ("write: " ^ Unix.error_message e)

let exchange t bytes ~replies =
  let rec read n acc =
    if n = 0 then Ok (List.rev acc)
    else
      match read_frame t with
      | Ok raw -> read (n - 1) (raw :: acc)
      | Error msg -> Error msg
  in
  Result.bind (send t bytes) (fun () -> read replies [])

let transport msg = Error (Proto.error "transport" msg)

let rpc t req =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let raw =
    { Wire.r_op = Wire.opcode_byte (Proto.opcode_of_request req);
      r_id = id;
      r_payload = Proto.request_to_payload req }
  in
  match Result.bind (send t (Wire.encode_raw raw)) (fun () -> read_frame t) with
  | Error msg -> transport msg
  | Ok reply ->
    if reply.Wire.r_id <> id then
      transport
        (Printf.sprintf "reply id %d does not match request id %d"
           reply.Wire.r_id id)
    else (
      match Wire.opcode_of_byte reply.Wire.r_op with
      | Some Wire.Reply_ok -> (
        match Proto.reply_of_payload ~op:Wire.Reply_ok reply.Wire.r_payload with
        | Ok r -> Ok r
        | Error msg -> transport msg)
      | Some Wire.Reply_err -> (
        match Proto.error_of_payload reply.Wire.r_payload with
        | Ok e -> Error e
        | Error msg -> transport msg)
      | _ ->
        transport
          (Printf.sprintf "unexpected reply opcode 0x%02x" reply.Wire.r_op))

(* ------------------------------------------------------------------ *)
(* Resilient client: seeded retry with exponential backoff + jitter    *)
(* ------------------------------------------------------------------ *)

(* Retrying is safe because requests are idempotent under
   [Proto.request_key]: replaying an [overloaded] or transport-failed
   request can at worst collapse into someone else's in-flight batch.
   The backoff jitter comes from a seeded PRNG, so a fixed (seed, trace)
   replays the exact same sleep schedule. *)

type retry = {
  rt_socket : string;
  rt_rng : Random.State.t;
  mutable rt_conn : t option;
  mutable rt_retries : int;
}

(* Tries per request, and the backoff's base in milliseconds. *)
let max_attempts = 6
let base_ms = 25

let connect_retry ~socket ~seed =
  { rt_socket = socket;
    rt_rng = Random.State.make [| seed; 0x5e11e |];
    rt_conn = None;
    rt_retries = 0 }

let retries r = r.rt_retries

let close_retry r =
  (match r.rt_conn with Some c -> close c | None -> ());
  r.rt_conn <- None

(* Exponential backoff with full jitter, capped: attempt k sleeps a
   uniform draw from [0, base * 2^k], never more than 2 s. *)
let backoff_ms r ~attempt =
  let cap = 2000 in
  let ceiling = min cap (base_ms * (1 lsl min attempt 10)) in
  1 + Random.State.int r.rt_rng (max 1 ceiling)

let sleep_ms ms = Unix.sleepf (float_of_int ms /. 1000.0)

let retryable = function
  | { Proto.e_code = "overloaded"; _ } | { Proto.e_code = "transport"; _ } ->
    true
  | _ -> false

let rpc_retry r req =
  let rec attempt k =
    let conn =
      match r.rt_conn with
      | Some c -> Ok c
      | None -> (
        match connect r.rt_socket with
        | c ->
          r.rt_conn <- Some c;
          Ok c
        | exception Unix.Unix_error (e, _, _) ->
          Error (Proto.error "transport" ("connect: " ^ Unix.error_message e)))
    in
    let result =
      match conn with
      | Error e -> Error e
      | Ok c ->
        let res = rpc c req in
        (match res with
        | Error { Proto.e_code = "transport"; _ } ->
          (* the stream is unusable after a transport fault: reconnect *)
          close_retry r
        | _ -> ());
        res
    in
    match result with
    | Error e when retryable e && k + 1 < max_attempts ->
      r.rt_retries <- r.rt_retries + 1;
      let back = backoff_ms r ~attempt:k in
      let wait =
        match e.Proto.e_retry_after_ms with
        | Some hint -> max hint back (* honor the server's hint *)
        | None -> back
      in
      sleep_ms wait;
      attempt (k + 1)
    | _ -> result
  in
  attempt 0
