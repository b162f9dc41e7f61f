(* The schema registry: one version reader and one validator for every
   JSON artifact the tools write.  Writers live next to the types they
   serialize (tune, fuzz driver, daemon, bench) and stamp their tag from
   the constants below; this module owns only the contract, so
   `--check-json` in shacklec, bench and fuzz is one implementation. *)

module Json = Observe.Json
module Metrics = Observe.Metrics

let tune_report = "tune-report/4"
let fuzz_report = "fuzz-report/8"
let fuzz_checkpoint = "fuzz-checkpoint/1"
let shackled_stats = "shackled-stats/2"
let shackled_cache_report = "shackled-cache-report/1"
let bounds_report = "bounds-report/1"
let server_load_report = "server-load-report/1"
let bench = "bench/1"

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Field helpers                                                       *)
(* ------------------------------------------------------------------ *)

let str_field k j =
  match Json.member k j with
  | Some (Json.Str s) -> Ok s
  | _ -> Error (Printf.sprintf "missing or non-string field %S" k)

let int_field k j =
  match Json.member k j with
  | Some (Json.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "missing or non-int field %S" k)

let bool_field k j =
  match Json.member k j with
  | Some (Json.Bool _) -> Ok ()
  | _ -> Error (Printf.sprintf "missing or non-bool field %S" k)

let int_or_null_field k j =
  match Json.member k j with
  | Some (Json.Int _ | Json.Null) -> Ok ()
  | _ -> Error (Printf.sprintf "field %S must be an int or null" k)

let list_field k j =
  match Json.member k j with
  | Some (Json.List l) -> Ok l
  | _ -> Error (Printf.sprintf "missing or non-list field %S" k)

let obj_field k j =
  match Json.member k j with
  | Some (Json.Obj o) -> Ok o
  | _ -> Error (Printf.sprintf "missing or non-object field %S" k)

let all f l = List.fold_left (fun acc x -> let* () = acc in f x) (Ok ()) l

let all_int_fields ks j = all (fun k -> Result.map ignore (int_field k j)) ks

(* ------------------------------------------------------------------ *)
(* Version                                                             *)
(* ------------------------------------------------------------------ *)

let version j =
  match Json.member "schema" j with
  | Some (Json.Str s) -> Ok s
  | Some _ -> Error "\"schema\" must be a string"
  | None -> (
    match Json.member "schema_version" j with
    | Some (Json.Int v) -> Ok (Printf.sprintf "bench/%d" v)
    | Some _ -> Error "\"schema_version\" must be an integer"
    | None -> Error "no \"schema\" or \"schema_version\" field — not a report")

(* ------------------------------------------------------------------ *)
(* Per-family validators                                               *)
(* ------------------------------------------------------------------ *)

let check_tune j =
  let* _ = str_field "kernel" j in
  let* _ = str_field "mode" j in
  let* counts =
    match Json.member "counts" j with
    | Some (Json.Obj _ as c) -> Ok c
    | _ -> Error "missing or non-object field \"counts\""
  in
  let* () =
    all_int_fields
      [ "enumerated"; "pruned"; "illegal"; "unknown"; "legal"; "variants";
        "pruned_by_bound" ]
      counts
    |> Result.map_error (fun e -> "counts: " ^ e)
  in
  let* () =
    match Json.member "solver" j with
    | Some s -> Result.map ignore (Metrics.solver_of_json s)
    | None -> Error "missing field \"solver\""
  in
  let* _ = int_field "solves_per_sweep" j in
  let* table = list_field "table" j in
  let* () =
    all
      (fun row ->
        let* () =
          match (Json.member "spec" row, Json.member "cycles" row) with
          | Some (Json.Str _), Some (Json.Float _ | Json.Int _) -> Ok ()
          | _ -> Error "table row: missing \"spec\" or \"cycles\""
        in
        match (Json.member "lower_bounds" row, Json.member "headroom" row) with
        | Some (Json.List _), Some (Json.List _) -> Ok ()
        | _ -> Error "table row: missing \"lower_bounds\" or \"headroom\"")
      table
  in
  let* () =
    match Json.member "best" j with
    | Some (Json.Str _ | Json.Null) -> Ok ()
    | _ -> Error "missing field \"best\""
  in
  let* failures = list_field "failures" j in
  let* () =
    all
      (fun row ->
        match (Json.member "spec" row, Json.member "reason" row) with
        | Some (Json.Str _), Some (Json.Str _) -> Ok ()
        | _ -> Error "failure row: missing \"spec\" or \"reason\"")
      failures
  in
  let* metrics = list_field "metrics" j in
  all (fun m -> Result.map ignore (Metrics.sim_of_json m)) metrics

(* Mirrors Oracle.kind_string; duplicated here so report depends only on
   observe (the fuzz library itself links report's callers, not report). *)
let fuzz_kinds =
  [ "roundtrip"; "legality"; "codegen"; "replay"; "tune"; "par"; "wire";
    "stage"; "bound"; "crash"; "timeout" ]

let check_fuzz_failure row =
  let* kind = str_field "kind" row in
  let* () =
    if List.mem kind fuzz_kinds then Ok ()
    else Error (Printf.sprintf "failure row: unknown kind %S" kind)
  in
  let* _ = int_field "seed" row in
  let* _ = str_field "detail" row in
  let* _ = str_field "repro" row in
  bool_field "injected" row

let check_fuzz j =
  let* () =
    all_int_fields
      [ "first_seed"; "seeds"; "specs"; "legal_specs"; "verified"; "skipped";
        "tune_checked"; "par_checked"; "wire_checked"; "stage_checked";
        "bound_checked"; "chaos_checked"; "gave_up" ]
      j
  in
  let* () = bool_field "quick" j in
  let* () = int_or_null_field "timeout_ms" j in
  let* () = int_or_null_field "fuel" j in
  let* _ = str_field "inject" j in
  let* failures = list_field "failures" j in
  all check_fuzz_failure failures

let check_fuzz_checkpoint j =
  let* () = all_int_fields [ "first_seed"; "seeds" ] j in
  let* () =
    all (fun k -> bool_field k j)
      [ "quick"; "tune"; "par"; "wire"; "stage"; "bound" ]
  in
  let* () = int_or_null_field "timeout_ms" j in
  let* () = int_or_null_field "fuel" j in
  Result.map ignore (str_field "inject" j)

let num_field k j =
  match Json.member k j with
  | Some (Json.Float _ | Json.Int _) -> Ok ()
  | _ -> Error (Printf.sprintf "missing or non-numeric field %S" k)

let check_int_obj what = function
  | Json.Obj fields ->
    all
      (fun (k, v) ->
        match v with
        | Json.Int _ -> Ok ()
        | _ -> Error (Printf.sprintf "%s: non-int count for %S" what k))
      fields
  | _ -> Error (Printf.sprintf "%s must be an object" what)

(* One latency-series object: count plus the percentile ladder. *)
let check_series what s =
  let* () =
    Result.map_error (fun e -> what ^ ": " ^ e) (Result.map ignore (int_field "count" s))
  in
  all
    (fun k -> Result.map_error (fun e -> what ^ ": " ^ e) (num_field k s))
    [ "p50_ms"; "p99_ms"; "p999_ms"; "max_ms"; "mean_ms" ]

let check_ops what j =
  match Json.member "ops" j with
  | Some (Json.Obj ops) ->
    all (fun (op, s) -> check_series (what ^ " op " ^ op) s) ops
  | _ -> Error (Printf.sprintf "%s: missing or non-object field \"ops\"" what)

let check_server_obj server =
  let* () =
    all_int_fields
      [ "requests"; "errors"; "batch_collapses"; "connections"; "shed";
        "evicted" ]
      server
    |> Result.map_error (fun e -> "server: " ^ e)
  in
  let* () =
    match Json.member "error_codes" server with
    | Some ec -> check_int_obj "server.error_codes" ec
    | None -> Error "server: missing field \"error_codes\""
  in
  check_ops "server" server

let check_shackled_stats j =
  let* server = obj_field "server" j in
  let* () = check_server_obj (Json.Obj server) in
  let* () =
    match Json.member "solver" j with
    | Some s -> Result.map ignore (Metrics.solver_of_json s)
    | None -> Error "missing field \"solver\""
  in
  let* _ = int_field "solves" j in
  match Json.member "diskcache" j with
  | Some Json.Null -> Ok ()
  | Some dc -> Result.map ignore (Metrics.diskcache_of_json dc)
  | None -> Error "missing field \"diskcache\""

let check_server_load j =
  let* () =
    all_int_fields
      [ "seed"; "clients"; "requests"; "completed"; "retries"; "shed";
        "deadline_exceeded" ]
      j
  in
  let* () =
    match Json.member "errors" j with
    | Some e -> check_int_obj "errors" e
    | None -> Error "missing field \"errors\""
  in
  let* chaos = obj_field "chaos" j in
  let* () =
    all_int_fields [ "stalls"; "partial_writes"; "disconnects" ] (Json.Obj chaos)
    |> Result.map_error (fun e -> "chaos: " ^ e)
  in
  let* () = check_ops "load" j in
  let check_phase k =
    match Json.member k j with
    | Some Json.Null -> Ok ()
    | Some phase ->
      let* () =
        num_field "duration_ms" phase
        |> Result.map_error (fun e -> k ^ ": " ^ e)
      in
      all_int_fields [ "disk_hits"; "solves" ] phase
      |> Result.map_error (fun e -> k ^ ": " ^ e)
    | None -> Error (Printf.sprintf "missing field %S (object or null)" k)
  in
  let* () = check_phase "cold" in
  check_phase "warm"

let check_shackled_cache j =
  let* _ = str_field "file" j in
  all_int_fields [ "entries"; "bytes"; "dropped_bytes" ] j

let check_bounds j =
  let* _ = str_field "kernel" j in
  let* params = obj_field "params" j in
  let* () =
    all
      (fun (k, v) ->
        match v with
        | Json.Int _ -> Ok ()
        | _ -> Error (Printf.sprintf "params: non-int value for %S" k))
      params
  in
  let* stmts = list_field "stmts" j in
  let* () =
    all
      (fun s ->
        let* _ = str_field "label" s in
        let* _ = str_field "sigma" s in
        all_int_fields [ "depth"; "iterations" ] s)
      stmts
  in
  let* _ = int_field "distinct" j in
  let* machines = obj_field "machines" j in
  all
    (fun (m, levels) ->
      match levels with
      | Json.Obj lvs ->
        all
          (fun (_, lv) ->
            all_int_fields [ "misses"; "compulsory"; "windowed"; "phase" ] lv
            |> Result.map_error (fun e -> Printf.sprintf "machine %S: %s" m e))
          lvs
      | _ -> Error (Printf.sprintf "machine %S: levels must be an object" m))
    machines

let check_bench j =
  let* figs =
    match Json.member "figures" j with
    | Some (Json.List (_ :: _ as figs)) -> Ok figs
    | _ -> Error "figures must be a non-empty list"
  in
  all
    (fun fig ->
      match (Json.member "id" fig, Json.member "rows" fig) with
      | Some (Json.Str id), Some (Json.List rows) ->
        if rows = [] then Error ("figure " ^ id ^ " has no rows")
        else
          let* ms =
            list_field "metrics" fig
            |> Result.map_error (fun _ -> "figure " ^ id ^ " lacks a metrics list")
          in
          all
            (fun m ->
              Metrics.sim_of_json m
              |> Result.map ignore
              |> Result.map_error (fun e -> "figure " ^ id ^ ": bad metrics: " ^ e))
            ms
      | _ -> Error "figure lacks a string id or a rows list")
    figs

(* ------------------------------------------------------------------ *)
(* The shared entry point                                              *)
(* ------------------------------------------------------------------ *)

let check j =
  let* tag = version j in
  let* () =
    if String.equal tag tune_report then check_tune j
    else if String.equal tag fuzz_report then check_fuzz j
    else if String.equal tag fuzz_checkpoint then check_fuzz_checkpoint j
    else if String.equal tag shackled_stats then check_shackled_stats j
    else if String.equal tag shackled_cache_report then check_shackled_cache j
    else if String.equal tag bounds_report then check_bounds j
    else if String.equal tag server_load_report then check_server_load j
    else if String.equal tag bench then check_bench j
    else Error (Printf.sprintf "unknown report schema %S" tag)
  in
  Ok tag
