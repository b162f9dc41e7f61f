(* JSON payload encoding of the shackled/1 request/reply types.  Encoders
   construct fields in a fixed order and the serializer is deterministic,
   so [request_key] (opcode + payload text) is a canonical identity:
   identical queries produce identical keys and, downstream,
   byte-identical reply payloads — the property both the in-flight
   batcher and the wire fuzzer's determinism check rely on. *)

module Json = Observe.Json

type request =
  | Parse of { text : string }
  | Probe of { kernel : string; spec : string; size : int; budget_ms : int option }
  | Legal of { kernel : string; spec : string; size : int; budget_ms : int option }
  | Tune of { kernel : string; size : int; n : int; budget_ms : int option }
  | Sim of {
      kernel : string;
      spec : string option;
      size : int;
      n : int;
      machine : string;
      quality : string;
      budget_ms : int option;
    }
  | Stats
  | Shutdown

type reply =
  | R_parsed of { pretty : string; deps : int }
  | R_verdict of { verdict : string }
  | R_tuned of { label : string; cycles : float; candidates : int }
  | R_sim of { cycles : float; mflops : float; flops : int; accesses : int }
  | R_stats of Json.t
  | R_bye

type error = {
  e_code : string;
  e_message : string;
  e_retry_after_ms : int option;
}

let error e_code e_message = { e_code; e_message; e_retry_after_ms = None }

let error_retry e_code e_message ~retry_after_ms =
  { e_code; e_message; e_retry_after_ms = Some retry_after_ms }

let opcode_of_request = function
  | Parse _ -> Wire.Parse
  | Probe _ -> Wire.Probe
  | Legal _ -> Wire.Legal
  | Tune _ -> Wire.Tune
  | Sim _ -> Wire.Sim
  | Stats -> Wire.Stats
  | Shutdown -> Wire.Shutdown

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* [budget_ms] is appended only when present, so a budget-less request
   serializes byte-identically to the shackled/1 wire format — old clients
   and old recorded traces keep working, and their request keys (and hence
   batching identities) are unchanged. *)
let with_budget fields = function
  | None -> fields
  | Some ms -> fields @ [ ("budget_ms", Json.Int ms) ]

let request_to_json = function
  | Parse { text } -> Json.Obj [ ("text", Json.Str text) ]
  | Probe { kernel; spec; size; budget_ms }
  | Legal { kernel; spec; size; budget_ms } ->
    Json.Obj
      (with_budget
         [ ("kernel", Json.Str kernel);
           ("spec", Json.Str spec);
           ("size", Json.Int size) ]
         budget_ms)
  | Tune { kernel; size; n; budget_ms } ->
    Json.Obj
      (with_budget
         [ ("kernel", Json.Str kernel); ("size", Json.Int size);
           ("n", Json.Int n) ]
         budget_ms)
  | Sim { kernel; spec; size; n; machine; quality; budget_ms } ->
    Json.Obj
      (with_budget
         [ ("kernel", Json.Str kernel);
           ("spec", match spec with Some s -> Json.Str s | None -> Json.Null);
           ("size", Json.Int size);
           ("n", Json.Int n);
           ("machine", Json.Str machine);
           ("quality", Json.Str quality) ]
         budget_ms)
  | Stats | Shutdown -> Json.Obj []

let request_to_payload r = Json.to_string (request_to_json r)

let reply_to_payload r =
  Json.to_string
    (match r with
    | R_parsed { pretty; deps } ->
      Json.Obj [ ("pretty", Json.Str pretty); ("deps", Json.Int deps) ]
    | R_verdict { verdict } -> Json.Obj [ ("verdict", Json.Str verdict) ]
    | R_tuned { label; cycles; candidates } ->
      Json.Obj
        [ ("label", Json.Str label);
          ("cycles", Json.Float cycles);
          ("candidates", Json.Int candidates) ]
    | R_sim { cycles; mflops; flops; accesses } ->
      Json.Obj
        [ ("cycles", Json.Float cycles);
          ("mflops", Json.Float mflops);
          ("flops", Json.Int flops);
          ("accesses", Json.Int accesses) ]
    | R_stats j -> Json.Obj [ ("stats", j) ]
    | R_bye -> Json.Obj [ ("bye", Json.Bool true) ])

let error_to_payload e =
  Json.to_string
    (Json.Obj
       ([ ("code", Json.Str e.e_code); ("message", Json.Str e.e_message) ]
       @
       match e.e_retry_after_ms with
       | None -> []
       | Some ms -> [ ("retry_after_ms", Json.Int ms) ]))

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let bad_payload msg = Error (error "bad_payload" msg)

let parse_json payload k =
  match Json.of_string payload with
  | Error msg -> bad_payload ("payload is not JSON: " ^ msg)
  | Ok j -> k j

(* An absent or null budget is "no budget"; a present one must be a
   positive int, so a mistyped field fails loudly rather than silently
   running unbudgeted. *)
let budget j =
  match Json.member "budget_ms" j with
  | None | Some Json.Null -> Some None
  | Some (Json.Int ms) when ms > 0 -> Some (Some ms)
  | Some _ -> None

let request_of_payload ~op payload =
  match op with
  | Wire.Stats -> Ok Stats
  | Wire.Shutdown -> Ok Shutdown
  | Wire.Parse ->
    parse_json payload (fun j ->
        match Json.str_opt "text" j with
        | Some text -> Ok (Parse { text })
        | None -> bad_payload "parse: missing string field \"text\"")
  | Wire.Probe | Wire.Legal ->
    parse_json payload (fun j ->
        match
          ( Json.str_opt "kernel" j, Json.str_opt "spec" j,
            Json.int_opt "size" j, budget j )
        with
        | Some kernel, Some spec, Some size, Some budget_ms when size > 0 ->
          Ok
            (if op = Wire.Probe then Probe { kernel; spec; size; budget_ms }
             else Legal { kernel; spec; size; budget_ms })
        | _ ->
          bad_payload
            "legality: needs string \"kernel\", string \"spec\", positive int \
             \"size\" (optional positive int \"budget_ms\")")
  | Wire.Tune ->
    parse_json payload (fun j ->
        match
          ( Json.str_opt "kernel" j, Json.int_opt "size" j,
            Json.int_opt "n" j, budget j )
        with
        | Some kernel, Some size, Some n, Some budget_ms
          when size > 0 && n > 0 ->
          Ok (Tune { kernel; size; n; budget_ms })
        | _ ->
          bad_payload
            "tune: needs string \"kernel\", positive ints \"size\" and \"n\" \
             (optional positive int \"budget_ms\")")
  | Wire.Sim ->
    parse_json payload (fun j ->
        let spec =
          match Json.member "spec" j with
          | Some (Json.Str s) -> Some (Some s)
          | Some Json.Null | None -> Some None
          | _ -> None
        in
        match
          ( Json.str_opt "kernel" j, spec, Json.int_opt "size" j,
            Json.int_opt "n" j, Json.str_opt "machine" j,
            Json.str_opt "quality" j, budget j )
        with
        | Some kernel, Some spec, Some size, Some n, Some machine,
          Some quality, Some budget_ms
          when size > 0 && n > 0 ->
          Ok (Sim { kernel; spec; size; n; machine; quality; budget_ms })
        | _ ->
          bad_payload
            "sim: needs \"kernel\", \"spec\" (string or null), positive \
             \"size\"/\"n\", \"machine\", \"quality\" (optional positive int \
             \"budget_ms\")")
  | Wire.Reply_ok | Wire.Reply_err ->
    Error (error "bad_opcode" "reply opcodes are not requests")

let reply_of_payload ~op payload =
  if op <> Wire.Reply_ok then Error "not a Reply_ok frame"
  else
    match Json.of_string payload with
    | Error msg -> Error ("reply payload is not JSON: " ^ msg)
    | Ok j -> (
      match
        ( Json.str_opt "pretty" j, Json.str_opt "verdict" j,
          Json.str_opt "label" j, Json.member "stats" j, Json.member "bye" j,
          Json.num_opt "cycles" j )
      with
      | Some pretty, _, _, _, _, _ -> (
        match Json.int_opt "deps" j with
        | Some deps -> Ok (R_parsed { pretty; deps })
        | None -> Error "parsed reply lacks \"deps\"")
      | _, Some verdict, _, _, _, _ -> Ok (R_verdict { verdict })
      | _, _, Some label, _, _, Some cycles -> (
        match Json.int_opt "candidates" j with
        | Some candidates -> Ok (R_tuned { label; cycles; candidates })
        | None -> Error "tuned reply lacks \"candidates\"")
      | _, _, _, Some stats, _, _ -> Ok (R_stats stats)
      | _, _, _, _, Some (Json.Bool true), _ -> Ok R_bye
      | _, _, _, _, _, Some cycles -> (
        match
          ( Json.num_opt "mflops" j, Json.int_opt "flops" j,
            Json.int_opt "accesses" j )
        with
        | Some mflops, Some flops, Some accesses ->
          Ok (R_sim { cycles; mflops; flops; accesses })
        | _ -> Error "sim reply lacks mflops/flops/accesses")
      | _ -> Error "unrecognized reply shape")

let error_of_payload payload =
  match Json.of_string payload with
  | Error msg -> Error ("error payload is not JSON: " ^ msg)
  | Ok j -> (
    match (Json.str_opt "code" j, Json.str_opt "message" j) with
    | Some e_code, Some e_message ->
      let e_retry_after_ms =
        match Json.member "retry_after_ms" j with
        | Some (Json.Int ms) -> Some ms
        | _ -> None
      in
      Ok { e_code; e_message; e_retry_after_ms }
    | _ -> Error "error payload lacks code/message")

let request_key r =
  Wire.opcode_string (opcode_of_request r) ^ "|" ^ request_to_payload r

let budget_ms_of = function
  | Probe { budget_ms; _ } | Legal { budget_ms; _ } | Tune { budget_ms; _ }
  | Sim { budget_ms; _ } ->
    budget_ms
  | Parse _ | Stats | Shutdown -> None
