(* The schema registry: one version reader and one validator for every
   JSON artifact the tools write, and the one path by which report files
   are written and read.  The documents are built next to the types they
   serialize (tune, fuzz driver, daemon, bench) and stamp their tag from
   the constants below; every `--json` writes through [write] and every
   `--check-json` reads through [read]. *)

module Json = Observe.Json
module Metrics = Observe.Metrics

let tune_report = "tune-report/6"
let fuzz_report = "fuzz-report/8"
let fuzz_checkpoint = "fuzz-checkpoint/2"
let shackled_stats = "shackled-stats/2"
let shackled_cache_report = "shackled-cache-report/1"
let bounds_report = "bounds-report/1"
let server_load_report = "server-load-report/1"
let bench = "bench/1"

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Field helpers                                                       *)
(* ------------------------------------------------------------------ *)

let all f l = List.fold_left (fun acc x -> let* () = acc in f x) (Ok ()) l
let within what r = Result.map_error (fun e -> what ^ ": " ^ e) r
let present get k j = Result.map ignore (get k j)
let has_str = present Json.str_field
let has_int = present Json.int_field
let has_num = present Json.float_field
let has_list = present Json.list_field
let all_int_fields ks j = all (fun k -> has_int k j) ks

(* Every element of [l] passes every check; an error names the row kind. *)
let each what checks l =
  within what (all (fun x -> all (fun check -> check x) checks) l)

let int_or_null_field k j =
  match Json.member k j with
  | Some (Json.Int _ | Json.Null) -> Ok ()
  | _ -> Error (Printf.sprintf "field %S must be an int or null" k)

(* An object of int values, such as a count per error code. *)
let int_values k j =
  let* o = Json.obj_field k j in
  all
    (fun (name, v) ->
      match v with
      | Json.Int _ -> Ok ()
      | _ -> Error (Printf.sprintf "%s: non-int value for %S" k name))
    o

(* A field that holds one of Metrics' objects. *)
let has_metrics of_json k j =
  match Json.member k j with
  | Some x -> Result.map ignore (of_json x)
  | None -> Error (Printf.sprintf "missing field %S" k)

(* ------------------------------------------------------------------ *)
(* Version                                                             *)
(* ------------------------------------------------------------------ *)

let version j =
  match Json.member "schema" j with
  | Some (Json.Str s) -> Ok s
  | Some _ -> Error "\"schema\" must be a string"
  | None -> Error "no \"schema\" field — not a report"

(* ------------------------------------------------------------------ *)
(* Per-family validators                                               *)
(* ------------------------------------------------------------------ *)

let check_tune j =
  let* () = has_str "kernel" j in
  let* counts = Json.obj_field "counts" j in
  let* () =
    within "counts"
      (all_int_fields
         [ "enumerated"; "pruned"; "illegal"; "unknown"; "legal"; "variants";
           "pruned_by_bound" ]
         (Json.Obj counts))
  in
  let* () = has_metrics Metrics.solver_of_json "solver" j in
  let* () = has_int "solves_per_sweep" j in
  let* table = Json.list_field "table" j in
  let* () =
    each "table row"
      [ has_str "spec"; has_num "cycles"; has_list "lower_bounds";
        has_list "headroom" ]
      table
  in
  let* () =
    match Json.member "best" j with
    | Some (Json.Str _ | Json.Null) -> Ok ()
    | _ -> Error "missing field \"best\""
  in
  let* failures = Json.list_field "failures" j in
  let* () = each "failure row" [ has_str "spec"; has_str "reason" ] failures in
  let* bound_pruned = Json.list_field "bound_pruned" j in
  let* () =
    each "bound_pruned row"
      [ has_str "spec"; has_num "lower_bound_cycles"; has_num "incumbent_cycles" ]
      bound_pruned
  in
  let* n = Json.int_field "pruned_by_bound" (Json.Obj counts) in
  let* () =
    if n = List.length bound_pruned then Ok ()
    else
      Error
        (Printf.sprintf
           "counts.pruned_by_bound is %d but bound_pruned has %d rows" n
           (List.length bound_pruned))
  in
  let* metrics = Json.list_field "metrics" j in
  all (fun m -> Result.map ignore (Metrics.sim_of_json m)) metrics

(* Mirrors Oracle.kind_string; duplicated here so report depends only on
   observe (the fuzz library itself links report's callers, not report). *)
let fuzz_kinds =
  [ "roundtrip"; "legality"; "codegen"; "replay"; "tune"; "par"; "wire";
    "stage"; "bound"; "crash"; "timeout" ]

let check_fuzz_failure row =
  let* kind = Json.str_field "kind" row in
  let* () =
    if List.mem kind fuzz_kinds then Ok ()
    else Error (Printf.sprintf "failure row: unknown kind %S" kind)
  in
  all
    (fun check -> check row)
    [ has_int "seed"; has_str "detail"; has_str "repro";
      present Json.bool_field "injected" ]

(* The campaign configuration a fuzz report and a checkpoint meta share. *)
let check_campaign j =
  let* () = all_int_fields [ "first_seed"; "seeds" ] j in
  let* () = present Json.bool_field "quick" j in
  let* () = int_or_null_field "timeout_ms" j in
  let* () = int_or_null_field "fuel" j in
  has_str "inject" j

let check_fuzz j =
  let* () =
    all_int_fields
      [ "specs"; "legal_specs"; "verified"; "skipped"; "tune_checked";
        "par_checked"; "wire_checked"; "stage_checked"; "bound_checked";
        "chaos_checked"; "gave_up" ]
      j
  in
  let* () = check_campaign j in
  let* failures = Json.list_field "failures" j in
  all check_fuzz_failure failures

(* One latency-series object per op: count plus the percentile ladder. *)
let check_ops what j =
  let* ops = within what (Json.obj_field "ops" j) in
  all
    (fun (op, s) ->
      within (what ^ " op " ^ op)
        (let* () = has_int "count" s in
         all
           (fun k -> has_num k s)
           [ "p50_ms"; "p99_ms"; "p999_ms"; "max_ms"; "mean_ms" ]))
    ops

let check_shackled_stats j =
  let* server = Json.obj_field "server" j in
  let server = Json.Obj server in
  let* () =
    within "server"
      (let* () =
         all_int_fields
           [ "requests"; "errors"; "batch_collapses"; "connections"; "shed";
             "evicted" ]
           server
       in
       int_values "error_codes" server)
  in
  let* () = check_ops "server" server in
  let* () = has_metrics Metrics.solver_of_json "solver" j in
  let* () = has_int "solves" j in
  match Json.member "diskcache" j with
  | Some Json.Null -> Ok ()
  | _ -> has_metrics Metrics.diskcache_of_json "diskcache" j

let check_server_load j =
  let* () =
    all_int_fields
      [ "seed"; "clients"; "requests"; "completed"; "retries"; "shed";
        "deadline_exceeded" ]
      j
  in
  let* () = int_values "errors" j in
  let* chaos = Json.obj_field "chaos" j in
  let* () =
    within "chaos"
      (all_int_fields
         [ "stalls"; "partial_writes"; "disconnects" ]
         (Json.Obj chaos))
  in
  let* () = check_ops "load" j in
  let check_phase k =
    match Json.member k j with
    | Some Json.Null -> Ok ()
    | Some phase ->
      within k
        (let* () = has_num "duration_ms" phase in
         all_int_fields [ "disk_hits"; "solves" ] phase)
    | None -> Error (Printf.sprintf "missing field %S (object or null)" k)
  in
  let* () = check_phase "cold" in
  check_phase "warm"

let check_shackled_cache j =
  let* () = has_str "file" j in
  all_int_fields [ "entries"; "bytes"; "dropped_bytes" ] j

let check_bounds j =
  let* () = has_str "kernel" j in
  let* () = int_values "params" j in
  let* stmts = Json.list_field "stmts" j in
  let* () =
    each "stmt"
      [ has_str "label"; has_str "sigma"; has_int "depth"; has_int "iterations" ]
      stmts
  in
  let* () = has_int "distinct" j in
  let* machines = Json.obj_field "machines" j in
  all
    (fun (m, levels) ->
      within (Printf.sprintf "machine %S" m)
        (match levels with
        | Json.Obj lvs ->
          all
            (fun (_, lv) ->
              all_int_fields [ "misses"; "compulsory"; "windowed"; "phase" ] lv)
            lvs
        | _ -> Error "levels must be an object"))
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
      | Some (Json.Str id), Some (Json.List (_ :: _)) ->
        let* ms =
          Json.list_field "metrics" fig
          |> Result.map_error (fun _ -> "figure " ^ id ^ " lacks a metrics list")
        in
        within ("figure " ^ id ^ ": bad metrics")
          (all (fun m -> Result.map ignore (Metrics.sim_of_json m)) ms)
      | Some (Json.Str id), Some (Json.List []) ->
        Error ("figure " ^ id ^ " has no rows")
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
    else if String.equal tag fuzz_checkpoint then check_campaign j
    else if String.equal tag shackled_stats then check_shackled_stats j
    else if String.equal tag shackled_cache_report then check_shackled_cache j
    else if String.equal tag bounds_report then check_bounds j
    else if String.equal tag server_load_report then check_server_load j
    else if String.equal tag bench then check_bench j
    else Error (Printf.sprintf "unknown report schema %S" tag)
  in
  Ok tag

(* ------------------------------------------------------------------ *)
(* Report files                                                        *)
(* ------------------------------------------------------------------ *)

let write path doc =
  match check doc with
  | Error e ->
    Error (Printf.sprintf "refusing to write %s: schema error: %s" path e)
  | Ok _ -> (
    match
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Json.to_string ~pretty:true doc);
          Out_channel.output_char oc '\n')
    with
    | () -> Ok ()
    | exception Sys_error e -> Error e)

let read path =
  let* text = within path (Cli.read_file path) in
  let* doc = within path (Json.of_string text) in
  let* tag = within path (within "schema error" (check doc)) in
  Ok (tag, doc)
