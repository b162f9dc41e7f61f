(* Tests for the shackle autotuner: determinism across domain counts and
   candidate order, memoized-vs-fresh solver agreement, the report schema,
   and the golden geometries where the tuner must pick exactly the paper's
   hand-written blocked variants, bit-for-bit. *)

module K = Kernels.Builders
module Specs = Experiments.Specs
module Model = Machine.Model
module Json = Observe.Json
module Ctx = Polyhedra.Omega.Ctx
module Rng = Fuzzing.Rng
module Gen = Fuzzing.Gen

let exact = Alcotest.float 0.0

(* everything outside these keys is specified to be byte-identical across
   runs and across [domains] ("domains" itself is run configuration,
   echoed into the report) *)
let volatile = [ "timing"; "metrics"; "cache_compare"; "domains" ]

let stable_json rp =
  match Tune.report_to_json rp with
  | Json.Obj fields ->
    Json.to_string
      (Json.Obj (List.filter (fun (k, _) -> not (List.mem k volatile)) fields))
  | j -> Json.to_string j

let matmul_report ?(domains = 1) ?shuffle_seed () =
  let options =
    { Tune.default_options with sizes = [ 8 ]; domains; shuffle_seed }
  in
  Tune.tune ~options ~kernel:"matmul" ~params:[ ("N", 32) ] (K.matmul ())

(* --- determinism --- *)

let test_domains_deterministic () =
  let r1 = matmul_report ~domains:1 () in
  let r4 = matmul_report ~domains:4 () in
  Alcotest.(check string) "report identical for 1 vs 4 domains"
    (stable_json r1) (stable_json r4)

let test_shuffle_stable () =
  let plain = matmul_report () in
  let shuffled = matmul_report ~shuffle_seed:42 () in
  let table rp =
    List.map
      (fun s -> (s.Tune.s_cand.Tune.c_label, s.Tune.s_cycles))
      rp.Tune.rp_table
  in
  Alcotest.(check (list (pair string exact)))
    "ranked table independent of candidate order" (table plain) (table shuffled)

(* --- the memoized legality engine --- *)

let test_cache_hits () =
  let pipe = Pipeline.create (K.matmul ()) in
  let spec = Specs.matmul_c ~size:8 in
  let a = Pipeline.is_legal pipe spec in
  let b = Pipeline.is_legal pipe spec in
  Alcotest.(check bool) "same verdict" a b;
  Alcotest.(check bool) "second query hits the memo table" true
    (Ctx.cache_hits (Pipeline.solver pipe) > 0)

let test_cache_consistency_fuzz () =
  (* cached and cache-less contexts must agree on every legality verdict
     over 200 generated programs *)
  let checked = ref 0 in
  for seed = 1 to 200 do
    let prog = Gen.program ~quick:true (Rng.create seed) in
    match Tune.consistency_step prog with
    | Ok n -> checked := !checked + n
    | Error msg -> Alcotest.failf "seed %d: %s" seed msg
  done;
  Alcotest.(check bool) "compared some specs" true (!checked > 0)

let test_cache_compare_pass () =
  let options =
    { Tune.default_options with sizes = [ 8 ]; cache_compare = true }
  in
  let rp =
    Tune.tune ~options ~kernel:"matmul" ~params:[ ("N", 32) ] (K.matmul ())
  in
  match rp.Tune.rp_cache_compare with
  | None -> Alcotest.fail "cache_compare pass did not run"
  | Some cc ->
    Alcotest.(check bool) "cold and warm verdicts agree" true cc.Tune.cc_agree;
    Alcotest.(check bool) "warm pass hits the memo table" true
      (cc.Tune.cc_warm_hits > 0)

(* --- report schema --- *)

let test_report_schema () =
  let rp = matmul_report () in
  let j = Tune.report_to_json rp in
  (match Tune.check_report_json j with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "self-check rejects the report: %s" msg);
  (match Json.of_string (Json.to_string ~pretty:true j) with
  | Ok j' ->
    Alcotest.(check bool) "JSON round-trips" true (Json.equal j j')
  | Error msg -> Alcotest.failf "report does not reparse: %s" msg);
  Alcotest.(check bool) "legality queries were counted" true
    (rp.Tune.rp_solver.Observe.Metrics.so_queries > 0);
  Alcotest.(check bool) "memo table was effective" true
    (rp.Tune.rp_solver.Observe.Metrics.so_cache_hits > 0)

(* --- resource budgets --- *)

let test_starved_tune_completes () =
  (* one unit of fuel per query: every legality probe gives up, so the
     campaign finds no legal candidates — but it completes, counts the
     gave-ups, and the report still validates *)
  let options =
    { Tune.default_options with sizes = [ 8 ]; fuel = Some 1 }
  in
  let rp =
    Tune.tune ~options ~kernel:"matmul" ~params:[ ("N", 32) ] (K.matmul ())
  in
  Alcotest.(check bool) "candidates counted as unknown" true
    (rp.Tune.rp_counts.Tune.n_unknown > 0);
  Alcotest.(check int) "none admitted" 0 rp.Tune.rp_counts.Tune.n_legal;
  Alcotest.(check bool) "solver counted the gave-ups" true
    (rp.Tune.rp_solver.Observe.Metrics.so_unknowns > 0);
  match Tune.check_report_json (Tune.report_to_json rp) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "starved report fails validation: %s" msg

let test_generous_budget_matches_unbudgeted () =
  let budgeted =
    { Tune.default_options with
      sizes = [ 8 ];
      fuel = Some 10_000_000;
      timeout_ms = Some 600_000 }
  in
  let r1 =
    Tune.tune ~options:budgeted ~kernel:"matmul" ~params:[ ("N", 32) ]
      (K.matmul ())
  in
  let r2 = matmul_report () in
  let table rp =
    List.map
      (fun s -> (s.Tune.s_cand.Tune.c_label, s.Tune.s_cycles))
      rp.Tune.rp_table
  in
  Alcotest.(check (list (pair string exact)))
    "generous budget ranks identically" (table r2) (table r1);
  Alcotest.(check int) "nothing gave up" 0 r1.Tune.rp_counts.Tune.n_unknown

let test_pruned_path_deadline () =
  (* bound pruning evaluates one group at a time, under the same
     per-group deadline as the parallel path.  At N=112 one recording
     takes about 16x the 25 ms budget, while each legality query takes
     well under a millisecond, so none of them gives up. *)
  let options =
    { Tune.default_options with
      sizes = [ 8 ];
      depth = 1;
      prune_bounds = true;
      timeout_ms = Some 25 }
  in
  let rp =
    Tune.tune ~options ~arrays:[ "C" ] ~kernel:"matmul"
      ~params:[ ("N", 112) ]
      (K.matmul ())
  in
  Alcotest.(check int) "no legality query gave up" 0
    rp.Tune.rp_counts.Tune.n_unknown;
  Alcotest.(check bool) "some candidate was legal" true
    (rp.Tune.rp_counts.Tune.n_legal > 0);
  Alcotest.(check bool) "failure rows were written" true
    (rp.Tune.rp_failures <> []);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (f.Tune.ef_label ^ " timed out") true
        (String.starts_with ~prefix:"timed out" f.Tune.ef_reason))
    rp.Tune.rp_failures;
  Alcotest.(check int) "nothing ranked" 0 (List.length rp.Tune.rp_table)

(* --- golden geometries --- *)

(* N=64 with 16x16 blocks: one 16x64 panel of A (8 KB) plus a 16x16 tile
   of C fit the 64 KB cache but whole rows of everything do not, so the
   fully blocked C x A product strictly beats both single shackles. *)
let test_matmul_golden () =
  let p = K.matmul () in
  let n = 64 in
  let golden = Specs.matmul_ca ~size:16 in
  let rp =
    Tune.tune
      ~arrays:[ "C"; "A" ]
      ~kernel:"matmul"
      ~params:[ ("N", n) ]
      p
  in
  let best =
    match Tune.best rp with
    | Some s -> s
    | None -> Alcotest.fail "no legal candidate for matmul"
  in
  Alcotest.(check string) "best is the fully blocked C x A product"
    (Tune.spec_label golden) best.Tune.s_cand.Tune.c_label;
  Alcotest.(check bool) "winner is fully constrained (Theorem 2)" true
    best.Tune.s_cand.Tune.c_fully_constrained;
  let r =
    Pipeline.simulate (Pipeline.create p) ~spec:golden ~machine:Model.sp2_like
      ~quality:Model.untuned
      ~params:[ ("N", n) ]
      ~init:(Kernels.Inits.for_kernel "matmul" ~n)
  in
  Alcotest.check exact "cycles bit-for-bit equal to the hand-written variant"
    r.Model.r_cycles best.Tune.s_cycles;
  Alcotest.(check bool) "strictly faster than the unblocked input" true
    (best.Tune.s_cycles < rp.Tune.rp_input_cycles)

(* N=128 with 32x32 blocks (tuned inner loops): the read shackle — the
   paper's left-looking variant — wins; the write x read fully blocked
   product of Section 6 must also be in the table, again bit-for-bit. *)
let test_cholesky_golden () =
  let p = K.cholesky_right () in
  let n = 128 in
  let options =
    { Tune.default_options with sizes = [ 32 ]; qualities = [ Model.tuned ] }
  in
  let rp =
    Tune.tune ~options ~kernel:"cholesky_right" ~params:[ ("N", n) ] p
  in
  let best =
    match Tune.best rp with
    | Some s -> s
    | None -> Alcotest.fail "no legal candidate for cholesky"
  in
  let init = Kernels.Inits.for_kernel "cholesky_right" ~n in
  let pipe = Pipeline.create p in
  let sim spec =
    (Pipeline.simulate pipe ~spec ~machine:Model.sp2_like ~quality:Model.tuned
       ~params:[ ("N", n) ]
       ~init)
      .Model.r_cycles
  in
  let read = Specs.cholesky_read ~size:32 in
  Alcotest.(check string) "best is the read (left-looking) shackle"
    (Tune.spec_label read) best.Tune.s_cand.Tune.c_label;
  Alcotest.check exact "cycles bit-for-bit equal to the hand-written variant"
    (sim read) best.Tune.s_cycles;
  let full = Specs.cholesky_fully_blocked ~size:32 in
  (match
     List.find_opt
       (fun s -> String.equal s.Tune.s_cand.Tune.c_label (Tune.spec_label full))
       rp.Tune.rp_table
   with
  | None -> Alcotest.fail "write x read product missing from the table"
  | Some s ->
    Alcotest.check exact "product cycles bit-for-bit" (sim full)
      s.Tune.s_cycles);
  Alcotest.(check bool) "strictly faster than the unblocked input" true
    (best.Tune.s_cycles < rp.Tune.rp_input_cycles)

(* --- analytic lower-bound pruning --- *)

(* On the small fully-associative single-element-line machine the windowed
   communication bound is tight enough that pruning actually fires for
   matmul; for Cholesky every ref hits the same array, the projective
   per-array bound is nearly flat across candidates, and nothing can be
   pruned — but the winner must still be byte-identical either way. *)
let pruned_vs_exhaustive ~kernel ~n ~sizes prog =
  let base =
    { Tune.default_options with sizes; machines = [ Model.small_cache ] }
  in
  let run prune_bounds =
    Tune.tune
      ~options:{ base with prune_bounds }
      ~kernel
      ~params:[ ("N", n) ]
      prog
  in
  let exhaustive = run false and pruned = run true in
  (match (Tune.best exhaustive, Tune.best pruned) with
  | Some e, Some p ->
    Alcotest.(check string) "same winner with and without pruning"
      e.Tune.s_cand.Tune.c_label p.Tune.s_cand.Tune.c_label;
    Alcotest.check exact "same winning cycles" e.Tune.s_cycles p.Tune.s_cycles
  | _ -> Alcotest.fail "a run produced no winner");
  Alcotest.(check int) "exhaustive run prunes nothing" 0
    exhaustive.Tune.rp_counts.Tune.n_pruned_by_bound;
  (match Tune.check_report_json (Tune.report_to_json pruned) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "pruned report fails validation: %s" msg);
  pruned.Tune.rp_counts.Tune.n_pruned_by_bound

let test_prune_bounds_matmul () =
  let n_pruned =
    pruned_vs_exhaustive ~kernel:"matmul" ~n:48 ~sizes:[ 4; 8; 16 ]
      (K.matmul ())
  in
  Alcotest.(check bool) "the bound pruner fired" true (n_pruned > 0)

let test_prune_bounds_cholesky () =
  let n_pruned =
    pruned_vs_exhaustive ~kernel:"cholesky_right" ~n:40 ~sizes:[ 4; 8 ]
      (K.cholesky_right ())
  in
  (* single-array kernel: the bound is flat, so nothing should be (and
     nothing may unsoundly be) discarded *)
  Alcotest.(check int) "flat bound prunes nothing" 0 n_pruned

let test_headroom_sound () =
  (* every reported candidate's simulated misses must be >= its bound,
     per machine, per level *)
  let options =
    { Tune.default_options with
      sizes = [ 8; 16 ];
      machines = [ Model.small_cache; Model.sp2_like ] }
  in
  let rp =
    Tune.tune ~options ~kernel:"matmul" ~params:[ ("N", 48) ] (K.matmul ())
  in
  Alcotest.(check bool) "table is nonempty" true (rp.Tune.rp_table <> []);
  List.iter
    (fun s ->
      List.iter
        (fun (machine, per_level) ->
          match
            List.find_opt
              (fun (m, _, _) -> String.equal m machine)
              s.Tune.s_results
          with
          | None -> ()
          | Some (_, _, r) ->
            List.iter2
              (fun (lname, bound) (st : Model.level_stat) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s %s/%s: misses %d >= bound %d"
                     s.Tune.s_cand.Tune.c_label machine lname st.Model.s_misses
                     bound)
                  true
                  (st.Model.s_misses >= bound))
              per_level r.Model.r_levels)
        s.Tune.s_bounds)
    rp.Tune.rp_table

let () =
  Alcotest.run "tune"
    [ ( "determinism",
        [ Alcotest.test_case "domains 1 vs 4" `Slow test_domains_deterministic;
          Alcotest.test_case "shuffled candidates" `Quick test_shuffle_stable ] );
      ( "legality cache",
        [ Alcotest.test_case "repeat query hits" `Quick test_cache_hits;
          Alcotest.test_case "cached vs fresh on 200 fuzz programs" `Slow
            test_cache_consistency_fuzz;
          Alcotest.test_case "cold/warm compare pass" `Quick
            test_cache_compare_pass ] );
      ( "report",
        [ Alcotest.test_case "schema self-check and round-trip" `Quick
            test_report_schema ] );
      ( "budget",
        [ Alcotest.test_case "starved run completes" `Quick
            test_starved_tune_completes;
          Alcotest.test_case "generous budget = unbudgeted" `Quick
            test_generous_budget_matches_unbudgeted;
          Alcotest.test_case "pruned path honours the deadline" `Quick
            test_pruned_path_deadline ] );
      ( "golden",
        [ Alcotest.test_case "matmul picks C x A, bit-for-bit" `Slow
            test_matmul_golden;
          Alcotest.test_case "cholesky picks read shackle, bit-for-bit" `Slow
            test_cholesky_golden ] );
      ( "bounds",
        [ Alcotest.test_case "matmul: pruning fires, winner unchanged" `Slow
            test_prune_bounds_matmul;
          Alcotest.test_case "cholesky: flat bound, winner unchanged" `Slow
            test_prune_bounds_cholesky;
          Alcotest.test_case "headroom >= 1 on every row" `Quick
            test_headroom_sound ] ) ]
