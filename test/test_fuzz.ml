(* Tests for the fuzzing subsystem itself: the generator's validity
   invariants, determinism of whole campaigns, the shrinker, and — the key
   one — that a deliberately broken legality checker is caught by the
   brute-force oracle and minimized to a tiny repro. *)

module Ast = Loopir.Ast
module Rng = Fuzzing.Rng
module Gen = Fuzzing.Gen
module Brute = Fuzzing.Brute
module Oracle = Fuzzing.Oracle
module Shrink = Fuzzing.Shrink
module Driver = Fuzzing.Driver
module Fault = Fuzzing.Fault
module Json = Observe.Json

let stmt_count p = List.length (Ast.statements p)

(* --- rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create 43 in
  Alcotest.(check bool) "different seeds differ" true
    (List.init 20 (fun _ -> Rng.int a 1000)
    <> List.init 20 (fun _ -> Rng.int c 1000))

let test_rng_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.range rng (-3) 5 in
    if v < -3 || v > 5 then Alcotest.failf "range out of bounds: %d" v
  done

(* --- generator invariants --- *)

let test_generator_valid () =
  (* every generated program is well-formed, executes in range for small N,
     and survives print -> parse -> print *)
  for seed = 1 to 60 do
    let prog = Gen.program ~quick:(seed mod 2 = 0) (Rng.create seed) in
    if not (Ast.arity_ok prog) then Alcotest.failf "arity_ok fails at seed %d" seed;
    List.iter
      (fun n ->
        match
          Exec.Verify.run_program prog ~params:[ ("N", n) ] ~init:(fun _ _ -> 1.0)
        with
        | exception e ->
          Alcotest.failf "seed %d raises at N=%d: %s\n%s" seed n
            (Printexc.to_string e)
            (Ast.program_to_string prog)
        | _ -> ())
      [ 2; 3; 4; 5 ];
    let s = Ast.program_to_string prog in
    let s' = Ast.program_to_string (Loopir.Parser.program s) in
    if not (String.equal s s') then
      Alcotest.failf "roundtrip not a fixpoint at seed %d" seed
  done

let test_generator_deterministic () =
  for seed = 1 to 20 do
    let p1 = Gen.program (Rng.create seed) in
    let p2 = Gen.program (Rng.create seed) in
    Alcotest.(check string)
      (Printf.sprintf "seed %d" seed)
      (Ast.program_to_string p1) (Ast.program_to_string p2)
  done

(* --- brute-force layer --- *)

let test_brute_accesses () =
  (* a 2x2 matmul-style nest: N^3 instances, 4 accesses each *)
  let p = Loopir.Parser.program
      "! t (params: N)\n\
       real A(N, N)\n\
       do I = 1, N\n\
       do J = 1, N\n\
       do K = 1, N\n\
       S1: A(I, J) = A(I, J) + A(I, K) * A(K, J)\n\
       end do\n\
       end do\n\
       end do\n"
  in
  let acc = Brute.accesses p ~params:[ ("N", 2) ] in
  Alcotest.(check int) "4 accesses x 8 instances" 32 (List.length acc);
  let writes = List.filter (fun (a : Brute.access) -> a.is_write) acc in
  Alcotest.(check int) "one write per instance" 8 (List.length writes)

let test_brute_lex () =
  Alcotest.(check bool) "lt" true (Brute.lex_lt [| 1; 5 |] [| 2; 0 |]);
  Alcotest.(check bool) "eq" false (Brute.lex_lt [| 1; 5 |] [| 1; 5 |]);
  Alcotest.(check bool) "gt" false (Brute.lex_lt [| 2; 0 |] [| 1; 5 |])

(* --- campaign: zero discrepancies, deterministic, domain independent --- *)

let run_quick ~domains ~seeds =
  Driver.run ~domains ~quick:true ~seeds ~first_seed:1 ()

let test_campaign_clean () =
  let r = run_quick ~domains:1 ~seeds:40 in
  List.iter (fun f -> print_endline (Driver.failure_to_string f)) r.Driver.failures;
  Alcotest.(check int) "no failures" 0 (List.length r.Driver.failures);
  let st = r.Driver.stats in
  Alcotest.(check bool) "some specs checked" true (st.Oracle.specs > 0);
  Alcotest.(check bool) "some runs verified" true (st.Oracle.verified > 0);
  (* every oracle layer runs on every seed *)
  List.iter
    (fun (layer, n) ->
      Alcotest.(check bool) (layer ^ " layer ran") true (n > 0))
    [ ("tune", st.Oracle.tune_checked); ("par", st.Oracle.par_checked);
      ("wire", st.Oracle.wire_checked); ("chaos", st.Oracle.chaos_checked);
      ("stage", st.Oracle.stage_checked); ("bound", st.Oracle.bound_checked) ]

let test_campaign_deterministic () =
  let j1 = Observe.Json.to_string (Driver.to_json (run_quick ~domains:1 ~seeds:15)) in
  let j2 = Observe.Json.to_string (Driver.to_json (run_quick ~domains:3 ~seeds:15)) in
  Alcotest.(check string) "same report for any domain count" j1 j2

(* --- the acceptance-criterion test: an injected legality bug is caught
   and shrunk to a small repro --- *)

let test_injected_bug_caught () =
  let config = Oracle.quick in
  let rec hunt seed =
    if seed > 100 then Alcotest.fail "no seed caught the injected bug"
    else
      match
        Driver.run_seed ~hooks:Oracle.always_legal_hooks ~config ~quick:true seed
      with
      | Ok _ -> hunt (seed + 1)
      | Error f ->
        print_endline (Driver.failure_to_string f);
        (* the broken checker calls illegal shackles legal; the oracle must
           report it as a legality or codegen divergence and shrink hard *)
        Alcotest.(check bool) "kind is legality" true (f.Driver.kind = Oracle.Legality);
        Alcotest.(check bool)
          (Printf.sprintf "minimized to <= 5 statements (got %d)"
             f.Driver.minimized_stmts)
          true
          (f.Driver.minimized_stmts <= 5);
        Alcotest.(check bool) "shrinking never grows" true
          (f.Driver.minimized_stmts <= f.Driver.original_stmts)
  in
  hunt 1

(* --- supervision: fault plans, injected campaigns, checkpoints --- *)

let test_fault_plan_roundtrip () =
  (match Fault.parse "crash:2,delay:3:250,starve:4:0" with
  | Ok p ->
    Alcotest.(check string) "round-trips" "crash:2,delay:3:250,starve:4:0"
      (Fault.to_string p);
    Alcotest.(check bool) "seed 2 is faulty" true (Fault.is_faulty p ~seed:2);
    Alcotest.(check bool) "seed 5 is clean" false (Fault.is_faulty p ~seed:5);
    Alcotest.(check string) "restrict keeps only the seed" "starve:4:0"
      (Fault.to_string (Fault.restrict p ~seed:4));
    Alcotest.(check (option int)) "starve threshold" (Some 0)
      (Fault.starve_for p ~seed:4)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "empty plan is none" true
    (match Fault.parse "" with Ok p -> Fault.is_none p | Error _ -> false);
  (match Fault.parse "explode:3" with
  | Ok _ -> Alcotest.fail "accepted an unknown fault shape"
  | Error msg ->
    Alcotest.(check bool) "error names the bad part" true
      (String.length msg > 0))

let test_injected_campaign_completes () =
  (* one crash, one delay past the deadline, one total fuel starvation:
     all three degradation paths in one campaign, which must run to the
     end with only injected failure rows *)
  let inject =
    match Fault.parse "crash:2,delay:3:2000,starve:4:0" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let r =
    Driver.run ~domains:2 ~timeout_ms:500 ~inject ~quick:true ~seeds:6
      ~first_seed:1 ()
  in
  Alcotest.(check int) "campaign reached every seed" 6 r.Driver.seeds;
  Alcotest.(check (list int)) "failures at the injected seeds" [ 2; 3 ]
    (List.map (fun f -> f.Driver.seed) r.Driver.failures);
  Alcotest.(check int) "no unexpected failures" 0
    (List.length (Driver.unexpected_failures r));
  (match r.Driver.failures with
  | [ crash; timeout ] ->
    Alcotest.(check bool) "crash row" true (crash.Driver.kind = Oracle.Crash);
    Alcotest.(check bool) "crash marked injected" true crash.Driver.injected;
    Alcotest.(check bool) "timeout row" true
      (timeout.Driver.kind = Oracle.Timeout);
    Alcotest.(check bool) "timeout marked injected" true
      timeout.Driver.injected;
    (* the repro command embeds everything needed to replay the seed *)
    let has needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "repro has --timeout-ms" true
      (has "--timeout-ms 500" crash.Driver.repro);
    Alcotest.(check bool) "repro has the restricted plan" true
      (has "--inject crash:2" crash.Driver.repro);
    Alcotest.(check bool) "repro pins the seed" true
      (has "--seed 2 --seeds 1" crash.Driver.repro)
  | fs -> Alcotest.failf "expected 2 failure rows, got %d" (List.length fs));
  (* the starved seed degrades (Unknown verdicts), it does not fail *)
  Alcotest.(check bool) "starved seed counted as gave-up" true
    (r.Driver.stats.Oracle.gave_up > 0)

let test_checkpoint_resume_byte_identical () =
  let ck = Filename.temp_file "fuzz_ck" ".jsonl" in
  let run ~resume () =
    Driver.run ~domains:1 ~checkpoint:ck ~resume ~quick:true ~seeds:8
      ~first_seed:1 ()
  in
  let full = Json.to_string (Driver.to_json (run ~resume:false ())) in
  (* simulate a mid-campaign kill: keep the meta line and the first three
     completed rows, drop the rest *)
  let ic = open_in ck in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  Alcotest.(check int) "checkpoint has meta + 8 rows" 9 (List.length lines);
  let oc = open_out ck in
  List.iteri (fun i l -> if i < 4 then output_string oc (l ^ "\n")) lines;
  close_out oc;
  let resumed = Json.to_string (Driver.to_json (run ~resume:true ())) in
  Sys.remove ck;
  Alcotest.(check string) "resumed report is byte-identical" full resumed

let test_resume_rejects_mismatched_config () =
  let ck = Filename.temp_file "fuzz_ck" ".jsonl" in
  ignore
    (Driver.run ~checkpoint:ck ~quick:true ~seeds:2 ~first_seed:1 ());
  let raised =
    try
      ignore
        (Driver.run ~checkpoint:ck ~resume:true ~quick:true ~seeds:5
           ~first_seed:1 ());
      false
    with Driver.Resume_mismatch _ -> true
  in
  Sys.remove ck;
  Alcotest.(check bool) "mismatched campaign rejected" true raised

(* An expired deadline is the supervisor's timeout, never a verdict on the
   program: [Oracle.check] raises [Runner.Expired] and returns no failure,
   both when a phase polls the deadline and when a layer fails after it
   passed (its solver queries may have given up because of it). *)
let test_oracle_expired_deadline () =
  let prog = Gen.program ~quick:true (Rng.create 1) in
  let expires what run =
    match run () with
    | Ok _ -> Alcotest.failf "%s: Ok past the deadline" what
    | Error f ->
      Alcotest.failf "%s: reported a %s failure" what
        (Oracle.kind_string f.Oracle.kind)
    | exception Runner.Expired -> ()
  in
  expires "expired on entry" (fun () ->
      Runner.with_deadline ~until:0.0 (fun () -> Oracle.check Oracle.quick prog));
  (* a checker that outlives the deadline, if there is one, then crashes *)
  let crash_late =
    { Oracle.legality =
        (fun _ _ ~deps:_ ->
          let d = Runner.deadline () in
          if d < infinity then
            Unix.sleepf (Float.max 0.0 (d -. Unix.gettimeofday ()) +. 0.001);
          failwith "checker crashed") }
  in
  (match Oracle.check ~hooks:crash_late Oracle.quick prog with
  | Error { Oracle.kind = Oracle.Crash; _ } -> ()
  | _ -> Alcotest.fail "with no deadline the crash is reported");
  expires "layer failed after the deadline" (fun () ->
      Runner.with_deadline ~until:(Unix.gettimeofday () +. 0.3) (fun () ->
          Oracle.check ~hooks:crash_late Oracle.quick prog))

(* --- shrinker --- *)

let test_shrinker_minimizes () =
  (* purely syntactic keep predicate: "statement S2 still present";
     the minimum is the single statement S2 at top level with constant
     subscripts *)
  let p = Loopir.Parser.program
      "! t (params: N)\n\
       real A(N, N)\n\
       real B(N)\n\
       do I = 1, N\n\
       S1: A(I, 1) = 2.0\n\
       do J = 1, I\n\
       if (J >= 2) then\n\
       S2: A(I, J) = A(I, J) + B(J) * 0.5\n\
       end if\n\
       S3: B(J) = A(I, J)\n\
       end do\n\
       end do\n"
  in
  let keep q =
    List.exists (fun (_, s) -> String.equal s.Ast.label "S2") (Ast.statements q)
  in
  let m = Shrink.minimize ~keep p in
  Alcotest.(check bool) "keep holds" true (keep m);
  Alcotest.(check int) "single statement" 1 (stmt_count m);
  Alcotest.(check int) "no loops or guards left" 1 (List.length m.Ast.body);
  match m.Ast.body with
  | [ Ast.Stmt s ] -> Alcotest.(check string) "it is S2" "S2" s.Ast.label
  | _ -> Alcotest.fail "expected a bare statement"

let test_shrinker_respects_keep () =
  (* a keep predicate nothing satisfies leaves the program unchanged *)
  let p = Gen.program (Rng.create 5) in
  let m = Shrink.minimize ~keep:(fun _ -> false) p in
  Alcotest.(check string) "unchanged" (Ast.program_to_string p)
    (Ast.program_to_string m)

let () =
  Alcotest.run "fuzz"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "range" `Quick test_rng_range ] );
      ( "generator",
        [ Alcotest.test_case "valid programs" `Quick test_generator_valid;
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic ] );
      ( "brute",
        [ Alcotest.test_case "accesses" `Quick test_brute_accesses;
          Alcotest.test_case "lex order" `Quick test_brute_lex ] );
      ( "campaign",
        [ Alcotest.test_case "clean on quick seeds" `Quick test_campaign_clean;
          Alcotest.test_case "deterministic across domains" `Quick
            test_campaign_deterministic ] );
      ( "oracle",
        [ Alcotest.test_case "injected legality bug caught and shrunk" `Quick
            test_injected_bug_caught ] );
      ( "supervision",
        [ Alcotest.test_case "fault plan round-trip" `Quick
            test_fault_plan_roundtrip;
          Alcotest.test_case "injected campaign completes" `Quick
            test_injected_campaign_completes;
          Alcotest.test_case "checkpoint resume is byte-identical" `Quick
            test_checkpoint_resume_byte_identical;
          Alcotest.test_case "resume rejects a mismatched config" `Quick
            test_resume_rejects_mismatched_config;
          Alcotest.test_case "expired deadline is a timeout, not a failure"
            `Quick test_oracle_expired_deadline ] );
      ( "shrinker",
        [ Alcotest.test_case "minimizes to the core" `Quick test_shrinker_minimizes;
          Alcotest.test_case "respects keep" `Quick test_shrinker_respects_keep ] ) ]
