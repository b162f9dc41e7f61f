(* Tests for the Domain-based work pool, the JSON serializer/parser, and
   the metrics pipeline: parallel and sequential runs of a figure must
   produce identical rows, and metrics must round-trip through JSON. *)

module F = Experiments.Figures
module Json = Observe.Json
module Metrics = Observe.Metrics

(* --- Runner --- *)

let test_map_orders () =
  let xs = List.init 100 Fun.id in
  let f x = (x * 7) mod 31 in
  Alcotest.(check (list int)) "domains:1" (List.map f xs) (Runner.map ~domains:1 f xs);
  Alcotest.(check (list int)) "domains:4" (List.map f xs) (Runner.map ~domains:4 f xs);
  Alcotest.(check (list int))
    "more domains than items" (List.map f [ 1; 2; 3 ])
    (Runner.map ~domains:16 f [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "empty" [] (Runner.map ~domains:4 f []);
  Alcotest.(check (list int)) "singleton" [ f 9 ] (Runner.map ~domains:4 f [ 9 ])

let test_mapi_and_run_all () =
  let xs = [ "a"; "b"; "c"; "d" ] in
  Alcotest.(check (list string))
    "mapi"
    [ "0a"; "1b"; "2c"; "3d" ]
    (Runner.mapi ~domains:3 (fun i s -> string_of_int i ^ s) xs);
  Alcotest.(check (list int))
    "run_all" [ 1; 2; 3 ]
    (Runner.run_all ~domains:2 [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ])

let test_uneven_work_keeps_order () =
  (* Tasks that finish out of order must still land in input order. *)
  let xs = [ 50000; 1; 20000; 2; 10000; 3 ] in
  let f n =
    let acc = ref 0 in
    for i = 1 to n do
      acc := !acc + i
    done;
    !acc
  in
  Alcotest.(check (list int)) "order preserved" (List.map f xs)
    (Runner.map ~domains:4 f xs)

exception Boom of int

let test_exception_propagates () =
  let raised =
    try
      ignore
        (Runner.map ~domains:4
           (fun x -> if x = 5 then raise (Boom x) else x)
           (List.init 10 Fun.id));
      false
    with Boom 5 -> true
  in
  Alcotest.(check bool) "Boom propagated" true raised

(* --- supervised pool: map_outcomes --- *)

let outcome_ints = function
  | Runner.Ok v -> Printf.sprintf "ok:%d" v
  | Runner.Failed (e, _) -> "failed:" ^ Printexc.to_string e
  | Runner.Timed_out -> "timeout"

let test_outcomes_all_ok_equals_map () =
  let xs = List.init 50 Fun.id in
  let f x = (x * 13) mod 17 in
  Alcotest.(check (list string))
    "outcomes = map on the happy path"
    (List.map (fun x -> "ok:" ^ string_of_int (f x)) xs)
    (List.map outcome_ints
       (Runner.map_outcomes ~domains:3
          (fun token x ->
            Runner.Token.check token;
            f x)
          xs))

let test_outcomes_failed_preserves_exn () =
  let outcomes =
    Runner.map_outcomes ~domains:1
      (fun _ x -> if x = 2 then raise (Boom x) else x * 10)
      [ 0; 1; 2; 3 ]
  in
  match outcomes with
  | [ Runner.Ok 0; Runner.Ok 10; Runner.Failed (Boom 2, bt); Runner.Ok 30 ] ->
    (* the backtrace is the raise site's, captured per-slot *)
    ignore (Printexc.raw_backtrace_to_string bt)
  | os ->
    Alcotest.failf "unexpected outcomes [%s]"
      (String.concat "; " (List.map outcome_ints os))

let test_outcomes_deterministic_across_domains () =
  let xs = List.init 40 Fun.id in
  let f _ x = if x mod 7 = 3 then raise (Boom x) else x * x in
  let show os = String.concat ";" (List.map outcome_ints os) in
  Alcotest.(check string) "domains 1 = domains 4"
    (show (Runner.map_outcomes ~domains:1 f xs))
    (show (Runner.map_outcomes ~domains:4 f xs))

let test_outcomes_timeout_does_not_poison () =
  (* one slot sleeps past its deadline; the slots after it must still
     complete normally (fresh tokens per task, nothing shared) *)
  let f token x =
    if x = 1 then begin
      Unix.sleepf 0.08;
      Runner.Token.check token;
      x
    end
    else x * 2
  in
  let outcomes = Runner.map_outcomes ~domains:2 ~timeout_ms:30 f [ 0; 1; 2; 3 ] in
  match outcomes with
  | [ Runner.Ok 0; Runner.Timed_out; Runner.Ok 4; Runner.Ok 6 ] -> ()
  | os ->
    Alcotest.failf "unexpected outcomes [%s]"
      (String.concat "; " (List.map outcome_ints os))

let test_outcomes_retry_recovers () =
  (* flaky task: fails on the first attempt, succeeds on the second; with
     retries:1 the slot must come back Ok *)
  let attempts = Array.make 3 0 in
  let f _ x =
    attempts.(x) <- attempts.(x) + 1;
    if x = 1 && attempts.(x) = 1 then raise (Boom x) else x
  in
  let outcomes =
    Runner.map_outcomes ~domains:1 ~retries:1 ~backoff_ms:1 f [ 0; 1; 2 ]
  in
  (match outcomes with
  | [ Runner.Ok 0; Runner.Ok 1; Runner.Ok 2 ] -> ()
  | os ->
    Alcotest.failf "unexpected outcomes [%s]"
      (String.concat "; " (List.map outcome_ints os)));
  Alcotest.(check int) "second attempt ran" 2 attempts.(1)

let test_outcomes_on_outcome_sees_every_slot () =
  let seen = Array.make 10 false in
  let _ =
    Runner.map_outcomes ~domains:4
      ~on_outcome:(fun i _ -> seen.(i) <- true)
      (fun _ x -> x)
      (List.init 10 Fun.id)
  in
  Alcotest.(check bool) "all slots notified" true
    (Array.for_all Fun.id seen)

(* --- parallel vs sequential figures --- *)

let rows_json fig =
  Json.to_string (Json.List (List.map F.row_to_json fig.F.f_rows))

(* Drop everything wall-clock-dependent: seconds and the trace timing
   fields.  Trace counts (executions, length, chunks, bytes) stay — they
   are deterministic and must match across parallel/sequential runs. *)
let metrics_sans_seconds fig =
  List.map
    (fun s ->
      { s with
        Metrics.sim_seconds = 0.0;
        sim_trace =
          Option.map
            (fun t ->
              { t with
                Metrics.tr_record_seconds = 0.0;
                tr_replay_seconds = 0.0 })
            s.Metrics.sim_trace })
    fig.F.f_metrics

let test_figure_rows_identical () =
  let run domains = F.fig11_cholesky ~sizes:[ 16; 24 ] ~block:8 ~domains () in
  let seq = run 1 and par = run 4 in
  Alcotest.(check string) "rows bitwise-identical" (rows_json seq)
    (rows_json par);
  Alcotest.(check bool) "metrics identical up to wall-clock" true
    (metrics_sans_seconds seq = metrics_sans_seconds par)

let test_replay_executes_once_per_variant () =
  (* fig11 has 3 program variants per size (input, blocked, left-looking)
     fanned into 4 series; with 2 sizes that is 8 metrics rows but only 6
     interpreter executions — the tentpole invariant. *)
  let fig = F.fig11_cholesky ~sizes:[ 16; 24 ] ~block:8 () in
  Alcotest.(check int) "metrics rows" 8 (List.length fig.F.f_metrics);
  let executions =
    List.fold_left
      (fun acc s ->
        match s.Metrics.sim_trace with
        | Some t -> acc + t.Metrics.tr_executions
        | None -> acc)
      0 fig.F.f_metrics
  in
  Alcotest.(check int) "one execution per (variant, size)" 6 executions;
  List.iter
    (fun s ->
      match s.Metrics.sim_trace with
      | Some t ->
        Alcotest.(check bool) "trace length positive" true (t.Metrics.tr_length > 0);
        Alcotest.(check bool) "trace bytes positive" true (t.Metrics.tr_bytes > 0)
      | None -> Alcotest.fail "replay row lacks trace info")
    fig.F.f_metrics

let test_registry_covers_quick_run () =
  List.iter
    (fun id ->
      match F.run_by_id id ~quick:true ~domains:1 with
      | Some fig ->
        Alcotest.(check string) "id round-trips" id fig.F.f_id;
        Alcotest.(check bool) (id ^ " has rows") true (fig.F.f_rows <> [])
      | None -> Alcotest.failf "unknown id %s" id)
    [ "tab-legality" ];
  Alcotest.(check bool) "registry non-empty" true (F.ids <> []);
  Alcotest.(check (option string)) "unknown id rejected" None
    (Option.map
       (fun f -> f.F.f_id)
       (F.run_by_id "nope" ~quick:true ~domains:1))

(* --- JSON --- *)

let test_json_golden () =
  let j =
    Json.Obj
      [ ("name", Json.Str "x\ny");
        ("n", Json.Int (-3));
        ("pi", Json.Float 2.5);
        ("whole", Json.Float 4.0);
        ("flags", Json.List [ Json.Bool true; Json.Null ]);
        ("empty", Json.Obj []) ]
  in
  Alcotest.(check string) "compact golden"
    "{\"name\":\"x\\ny\",\"n\":-3,\"pi\":2.5,\"whole\":4.0,\"flags\":[true,null],\"empty\":{}}"
    (Json.to_string j);
  match Json.of_string (Json.to_string ~pretty:true j) with
  | Ok j' -> Alcotest.(check bool) "round-trips via pretty" true (Json.equal j j')
  | Error e -> Alcotest.fail e

let test_json_parser_rejects () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_json_numbers () =
  (match Json.of_string "[0,-7,2.5,1e3,-1.25e-2]" with
   | Ok
       (Json.List
          [ Json.Int 0; Json.Int (-7); Json.Float 2.5; Json.Float 1000.;
            Json.Float (-0.0125) ]) -> ()
   | Ok j -> Alcotest.failf "unexpected parse %s" (Json.to_string j)
   | Error e -> Alcotest.fail e);
  (* floats always re-parse as floats, even when integral *)
  match Json.of_string (Json.to_string (Json.Float 3.0)) with
  | Ok (Json.Float 3.0) -> ()
  | _ -> Alcotest.fail "integral float did not survive a round-trip"

(* --- Metrics --- *)

let sample_sim =
  { Metrics.sim_label = "cholesky_right/N=16/input";
    sim_machine = "sp2-like";
    sim_quality = "untuned";
    sim_flops = 816;
    sim_instances = 696;
    sim_accesses = 2328;
    sim_levels =
      [ { Metrics.lv_name = "L1";
          lv_accesses = 2328;
          lv_hits = 2295;
          lv_misses = 33;
          lv_evictions = 0 } ];
    sim_cycles = 4353.0;
    sim_mflops = 12.37;
    sim_seconds = 0.25;
    sim_trace = None }

let metrics_golden =
  "{\"label\":\"cholesky_right/N=16/input\",\"machine\":\"sp2-like\",\
   \"quality\":\"untuned\",\"flops\":816,\"instances\":696,\
   \"accesses\":2328,\"levels\":[{\"name\":\"L1\",\"accesses\":2328,\
   \"hits\":2295,\"misses\":33,\"evictions\":0}],\"cycles\":4353.0,\
   \"mflops\":12.37,\"seconds\":0.25}"

let test_metrics_golden_roundtrip () =
  Alcotest.(check string) "serializer golden" metrics_golden
    (Json.to_string (Metrics.sim_to_json sample_sim));
  match Json.of_string metrics_golden with
  | Error e -> Alcotest.fail e
  | Ok j ->
    (match Metrics.sim_of_json j with
     | Ok s -> Alcotest.(check bool) "round-trip" true (s = sample_sim)
     | Error e -> Alcotest.fail e)

let test_metrics_trace_roundtrip () =
  let with_trace =
    { sample_sim with
      Metrics.sim_trace =
        Some
          { Metrics.tr_executions = 1;
            tr_length = 2328;
            tr_chunks = 1;
            tr_bytes = 18624;
            tr_record_seconds = 0.5;
            tr_replay_seconds = 0.25 } }
  in
  match Json.of_string (Json.to_string (Metrics.sim_to_json with_trace)) with
  | Error e -> Alcotest.fail e
  | Ok j ->
    (match Metrics.sim_of_json j with
     | Ok s ->
       Alcotest.(check bool) "trace info round-trips" true (s = with_trace)
     | Error e -> Alcotest.fail e)

(* Every writer emits every field, so a partial object is refused and the
   error names a missing field: a sim without counters, a solver object
   without its budget or backing-store counters, a disk-cache object
   without its torn-tail bytes. *)
let test_metrics_of_json_rejects () =
  let mentions msg k =
    let n = String.length k in
    let rec go i =
      i + n <= String.length msg && (String.sub msg i n = k || go (i + 1))
    in
    go 0
  in
  let refuses what of_json j ~field =
    match of_json j with
    | Ok _ -> Alcotest.failf "accepted a %s without %S" what field
    | Error msg ->
      Alcotest.(check bool) (what ^ " error names " ^ field) true
        (mentions msg field)
  in
  let without k = function
    | Json.Obj kvs -> Json.Obj (List.remove_assoc k kvs)
    | j -> j
  in
  refuses "sim" Metrics.sim_of_json
    (Json.Obj [ ("label", Json.Str "x") ])
    ~field:"machine";
  let solver =
    Metrics.solver_to_json
      { Metrics.so_queries = 12;
        so_splinters = 1;
        so_fuel_spent = 300;
        so_unknowns = 0;
        so_cache_hits = 4;
        so_cache_misses = 8;
        so_backing_hits = 2;
        so_cache_size = 8;
        so_cache_enabled = true }
  in
  Alcotest.(check bool) "full solver object parses" true
    (Result.is_ok (Metrics.solver_of_json solver));
  List.iter
    (fun field ->
      refuses "solver" Metrics.solver_of_json (without field solver) ~field)
    [ "fuel_spent"; "unknowns"; "backing_hits" ];
  let diskcache =
    Metrics.diskcache_to_json
      { Metrics.dc_entries = 3;
        dc_bytes = 160;
        dc_hits = 5;
        dc_misses = 3;
        dc_appended = 3;
        dc_dropped = 0 }
  in
  Alcotest.(check bool) "full disk-cache object parses" true
    (Result.is_ok (Metrics.diskcache_of_json diskcache));
  refuses "disk cache" Metrics.diskcache_of_json
    (without "dropped_bytes" diskcache)
    ~field:"dropped_bytes"

let test_metrics_collect_isolates () =
  let (inner, inner_sims), outer_sims =
    Metrics.collect (fun () ->
        Metrics.record { sample_sim with Metrics.sim_label = "outer" };
        Metrics.collect (fun () ->
            Metrics.record { sample_sim with Metrics.sim_label = "inner" };
            42))
  in
  Alcotest.(check int) "value" 42 inner;
  Alcotest.(check (list string)) "inner sees only inner" [ "inner" ]
    (List.map (fun s -> s.Metrics.sim_label) inner_sims);
  Alcotest.(check (list string)) "outer sees only outer" [ "outer" ]
    (List.map (fun s -> s.Metrics.sim_label) outer_sims)

let test_metrics_recorded_per_point () =
  let fig = F.fig12_qr ~sizes:[ 12; 16 ] ~width:4 ~domains:2 () in
  (* three series per size *)
  Alcotest.(check int) "one metrics row per simulation" 6
    (List.length fig.F.f_metrics);
  List.iter
    (fun s ->
      Alcotest.(check bool) "level stats populated" true
        (s.Metrics.sim_levels <> []);
      Alcotest.(check bool) "accesses positive" true (s.Metrics.sim_accesses > 0))
    fig.F.f_metrics

let () =
  Alcotest.run "runner"
    [ ( "runner",
        [ Alcotest.test_case "map ordering" `Quick test_map_orders;
          Alcotest.test_case "mapi and run_all" `Quick test_mapi_and_run_all;
          Alcotest.test_case "uneven work" `Quick test_uneven_work_keeps_order;
          Alcotest.test_case "exceptions" `Quick test_exception_propagates ] );
      ( "outcomes",
        [ Alcotest.test_case "all ok = map" `Quick test_outcomes_all_ok_equals_map;
          Alcotest.test_case "Failed keeps exn and backtrace" `Quick
            test_outcomes_failed_preserves_exn;
          Alcotest.test_case "deterministic across domain counts" `Quick
            test_outcomes_deterministic_across_domains;
          Alcotest.test_case "timeout does not poison later slots" `Quick
            test_outcomes_timeout_does_not_poison;
          Alcotest.test_case "retry recovers a flaky slot" `Quick
            test_outcomes_retry_recovers;
          Alcotest.test_case "on_outcome sees every slot" `Quick
            test_outcomes_on_outcome_sees_every_slot ] );
      ( "figures",
        [ Alcotest.test_case "parallel = sequential rows" `Quick
            test_figure_rows_identical;
          Alcotest.test_case "replay executes once per variant" `Quick
            test_replay_executes_once_per_variant;
          Alcotest.test_case "registry" `Quick test_registry_covers_quick_run ] );
      ( "json",
        [ Alcotest.test_case "golden" `Quick test_json_golden;
          Alcotest.test_case "rejects malformed" `Quick test_json_parser_rejects;
          Alcotest.test_case "numbers" `Quick test_json_numbers ] );
      ( "metrics",
        [ Alcotest.test_case "golden round-trip" `Quick
            test_metrics_golden_roundtrip;
          Alcotest.test_case "trace info round-trip" `Quick
            test_metrics_trace_roundtrip;
          Alcotest.test_case "rejects partial" `Quick test_metrics_of_json_rejects;
          Alcotest.test_case "collect isolates" `Quick
            test_metrics_collect_isolates;
          Alcotest.test_case "per-point records" `Quick
            test_metrics_recorded_per_point ] ) ]
