(* Tests for the shackle autotuner: determinism across domain counts and
   enumeration order, memoized-vs-fresh solver agreement, the report
   schema, the golden geometries where the tuner must pick exactly the
   paper's hand-written blocked variants, bit-for-bit, and the soundness
   of bound pruning, checked by simulating every pruned candidate. *)

module K = Kernels.Builders
module Specs = Experiments.Specs
module Model = Machine.Model
module Json = Observe.Json
module Ctx = Polyhedra.Omega.Ctx
module Legality = Shackle.Legality
module Rng = Fuzzing.Rng
module Gen = Fuzzing.Gen

let exact = Alcotest.float 0.0
let small_cache = List.assoc "small-cache" Model.machines

(* everything outside these keys is specified to be byte-identical across
   runs and across [domains] ("domains" itself is run configuration,
   echoed into the report) *)
let volatile = [ "timing"; "metrics"; "domains" ]

let stable_json rp =
  match Tune.report_to_json rp with
  | Json.Obj fields ->
    Json.to_string
      (Json.Obj (List.filter (fun (k, _) -> not (List.mem k volatile)) fields))
  | j -> Json.to_string j

let matmul_report ?(domains = 1) () =
  let options = { Tune.default_options with sizes = [ 8 ]; domains } in
  Tune.tune ~options ~kernel:"matmul" ~params:[ ("N", 32) ] (K.matmul ())

let table rp =
  List.map
    (fun s -> (s.Tune.s_cand.Tune.c_label, s.Tune.s_cycles))
    rp.Tune.rp_table

(* --- determinism --- *)

let test_domains_deterministic () =
  let r1 = matmul_report ~domains:1 () in
  let r4 = matmul_report ~domains:4 () in
  Alcotest.(check string) "report identical for 1 vs 4 domains"
    (stable_json r1) (stable_json r4)

let test_shuffle_stable () =
  (* the array and size lists fix the enumeration order; the visit order
     (bound, then label) and the ranking must not depend on it *)
  let run ~arrays ~sizes =
    Tune.tune
      ~options:{ Tune.default_options with sizes }
      ~arrays ~kernel:"matmul"
      ~params:[ ("N", 16) ]
      (K.matmul ())
  in
  let plain = run ~arrays:[ "C"; "A"; "B" ] ~sizes:[ 4; 8 ] in
  let permuted = run ~arrays:[ "B"; "A"; "C" ] ~sizes:[ 8; 4 ] in
  Alcotest.(check bool) "table is nonempty" true (plain.Tune.rp_table <> []);
  Alcotest.(check (list (pair string exact)))
    "ranked table independent of candidate order" (table plain)
    (table permuted)

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

let test_cold_warm_pass () =
  (* re-decide the report's candidates twice on a fresh memo context: the
     cold pass fills the table, the warm pass replays the same queries *)
  let prog = K.matmul () in
  let rp = matmul_report () in
  let deps = Pipeline.deps (Pipeline.create prog) in
  let verdicts ctx =
    List.map
      (fun s ->
        Shackle.Verdict.is_legal
          (Legality.probe_deps ~ctx prog s.Tune.s_cand.Tune.c_spec deps))
      rp.Tune.rp_table
  in
  let ctx = Ctx.create ~cache:true () in
  let cold = verdicts ctx in
  let hits = Ctx.cache_hits ctx in
  let warm = verdicts ctx in
  Alcotest.(check bool) "table is nonempty" true (cold <> []);
  Alcotest.(check (list bool)) "cold and warm verdicts agree" cold warm;
  Alcotest.(check (list bool)) "memoized verdicts = cache-less verdicts"
    (verdicts (Ctx.create ())) cold;
  Alcotest.(check bool) "warm pass hits the memo table" true
    (Ctx.cache_hits ctx > hits)

(* --- report schema --- *)

let test_report_schema () =
  let rp = matmul_report () in
  let j = Tune.report_to_json rp in
  Alcotest.(check (result string string)) "registry validates the report"
    (Ok Report.tune_report) (Report.check j);
  (match Json.of_string (Json.to_string ~pretty:true j) with
  | Ok j' ->
    Alcotest.(check bool) "JSON round-trips" true (Json.equal j j')
  | Error msg -> Alcotest.failf "report does not reparse: %s" msg);
  (* a pruned count that disagrees with the pruned rows is refused *)
  let rec miscount = function
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if String.equal k "pruned_by_bound" then (k, Json.Int 1)
             else (k, miscount v))
           fields)
    | j -> j
  in
  Alcotest.(check bool) "miscounted pruned_by_bound is refused" true
    (Result.is_error (Report.check (miscount j)));
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
  Alcotest.(check (result string string)) "starved report validates"
    (Ok Report.tune_report) (Report.check (Tune.report_to_json rp))

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
  Alcotest.(check (list (pair string exact)))
    "generous budget ranks identically" (table r2) (table r1);
  Alcotest.(check int) "nothing gave up" 0 r1.Tune.rp_counts.Tune.n_unknown

let test_pruned_path_deadline () =
  (* the bound-ordered batches run under the per-group deadline.  At
     N=112 one recording takes about 16x the 25 ms budget, while each
     legality query takes well under a millisecond, so none of them gives
     up; with no group finished there is no incumbent, so nothing is
     pruned either. *)
  let options =
    { Tune.default_options with
      sizes = [ 8 ];
      depth = 1;
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

(* Under the caller's deadline, not a timeout of its own: once it has
   passed, every evaluation group stops before recording and comes back
   as a "timed out" failure row.  The program has no dependences, so its
   candidates are legal without a solver query that could give up. *)
let test_caller_deadline_stops_groups () =
  let prog =
    Loopir.Parser.program
      "! scale (params: N)\n\
       real A(N, N)\n\
       real B(N, N)\n\
       do I = 1, N\n\
       do J = 1, N\n\
       S1: A(I, J) = B(I, J) * 2.0\n\
       end do\n\
       end do\n"
  in
  let tune () =
    Tune.tune
      ~options:{ Tune.default_options with sizes = [ 8 ]; depth = 1 }
      ~init:(fun _ _ -> 1.0)
      ~kernel:"scale" ~params:[ ("N", 32) ] prog
  in
  let rp = Runner.with_deadline ~until:0.0 tune in
  Alcotest.(check bool) "some candidate was legal" true
    (rp.Tune.rp_counts.Tune.n_legal > 0);
  Alcotest.(check bool) "failure rows were written" true
    (rp.Tune.rp_failures <> []);
  List.iter
    (fun f ->
      Alcotest.(check string) (f.Tune.ef_label ^ " timed out") "timed out"
        f.Tune.ef_reason)
    rp.Tune.rp_failures;
  Alcotest.(check int) "nothing ranked" 0 (List.length rp.Tune.rp_table);
  Alcotest.(check int) "with no deadline every legal candidate ranks"
    rp.Tune.rp_counts.Tune.n_legal
    (List.length (tune ()).Tune.rp_table)

(* A dependence-free outer product: its candidates are legal without a
   solver query that could give up. *)
let outer =
  Loopir.Parser.program
    "! outer (params: N)\n\
     real C(N, N, N)\n\
     real A(N, N)\n\
     real B(N, N)\n\
     real D(N, N)\n\
     do I = 1, N\n\
     do J = 1, N\n\
     do K = 1, N\n\
     S1: C(I, J, K) = A(I, K) * B(K, J) + D(I, J)\n\
     end do\n\
     end do\n\
     end do\n"

let tune_outer n () =
  Tune.tune
    ~options:{ Tune.default_options with sizes = [ 4; 8 ]; depth = 2 }
    ~init:(fun _ _ -> 1.0)
    ~kernel:"outer" ~params:[ ("N", n) ] outer

(* Past the caller's deadline the bound analysis that orders the visit
   stops as well: every candidate goes unanalyzed, and the tune costs less
   than the analyses it skips.  The outer product's specs come from a
   cheap tune at N = 8, and each analysis, from one shared preparation as
   the tune does it, is timed at N = 48, where the 30 analyses take over
   a hundred times the rest of a tune under an expired deadline.  Before,
   that tune ran every one of them. *)
let test_caller_deadline_stops_analysis () =
  let specs =
    List.map
      (fun s -> s.Tune.s_cand.Tune.c_spec)
      (tune_outer 8 ()).Tune.rp_table
  in
  let prepared = Bounds.prepare ~params:[ ("N", 48) ] outer in
  let (), analyses =
    Observe.Metrics.timed (fun () ->
        List.iter
          (fun spec -> ignore (Bounds.analyze_prepared ~spec prepared))
          specs)
  in
  let rp, expired =
    Observe.Metrics.timed (fun () ->
        Runner.with_deadline ~until:0.0 (tune_outer 48))
  in
  Alcotest.(check int) "every candidate is legal" (List.length specs)
    rp.Tune.rp_counts.Tune.n_legal;
  if expired >= analyses then
    Alcotest.failf "the expired tune took %.3f s, its %d analyses %.3f s"
      expired (List.length specs) analyses

(* Past the caller's deadline no code is generated and no baseline is
   recorded: each legal candidate of the outer product gets a "timed out"
   failure row of its own.  Before, a tune at N = 64 under an expired
   deadline generated every batch's code (26 to 31 ms of its 57) and
   recorded the input baseline. *)
let test_caller_deadline_stops_codegen () =
  let rp = Runner.with_deadline ~until:0.0 (tune_outer 64) in
  Alcotest.(check (float 0.0)) "no code generated" 0.0
    rp.Tune.rp_timing.Tune.t_codegen;
  Alcotest.(check (float 0.0)) "no baseline recorded" 0.0
    rp.Tune.rp_input_cycles;
  Alcotest.(check int) "nothing ranked" 0 (List.length rp.Tune.rp_table);
  Alcotest.(check bool) "some candidate was legal" true
    (rp.Tune.rp_counts.Tune.n_legal > 0);
  Alcotest.(check int) "a failure row per legal candidate"
    rp.Tune.rp_counts.Tune.n_legal
    (List.length rp.Tune.rp_failures);
  List.iter
    (fun f ->
      Alcotest.(check string) (f.Tune.ef_label ^ " timed out") "timed out"
        f.Tune.ef_reason)
    rp.Tune.rp_failures

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
    Model.simulate ~machine:Model.sp2_like ~quality:Model.untuned
      (Pipeline.codegen (Pipeline.create p) golden)
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
    (Model.simulate ~machine:Model.sp2_like ~quality:Model.tuned
       (Pipeline.codegen pipe spec)
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
   communication bound is tight enough that pruning fires for matmul; for
   Cholesky every ref hits the same array, the projective per-array bound
   is nearly flat across candidates, and nothing can be pruned.  Either
   way every pruned candidate is simulated directly: it must cost at least
   its reported bound, and that bound must exceed the winner's cycles. *)
let tune_small ?(domains = 1) ~kernel ~n ~sizes prog =
  Tune.tune
    ~options:
      { Tune.default_options with
        sizes;
        domains;
        machines = [ small_cache ] }
    ~kernel
    ~params:[ ("N", n) ]
    prog

let check_pruned_sound ~kernel ~n prog rp =
  Alcotest.(check (result string string)) "report validates"
    (Ok Report.tune_report) (Report.check (Tune.report_to_json rp));
  let best =
    match Tune.best rp with
    | Some s -> s
    | None -> Alcotest.failf "%s produced no winner" kernel
  in
  let pipe = Pipeline.create prog in
  let init = Kernels.Inits.for_kernel kernel ~n in
  List.iter
    (fun p ->
      let label = p.Tune.bp_cand.Tune.c_label in
      let r =
        Model.simulate ~machine:small_cache ~quality:Model.untuned
          (Pipeline.codegen pipe p.Tune.bp_cand.Tune.c_spec)
          ~params:[ ("N", n) ]
          ~init
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: simulated %.0f >= bound %.0f" label
           r.Model.r_cycles p.Tune.bp_bound)
        true
        (r.Model.r_cycles >= p.Tune.bp_bound);
      Alcotest.(check bool)
        (Printf.sprintf "%s: bound %.0f > winner %.0f" label p.Tune.bp_bound
           best.Tune.s_cycles)
        true
        (p.Tune.bp_bound > best.Tune.s_cycles))
    rp.Tune.rp_bound_pruned;
  best

let test_bound_pruning_matmul () =
  let prog = K.matmul () in
  let run domains =
    tune_small ~domains ~kernel:"matmul" ~n:48 ~sizes:[ 4; 8; 16 ] prog
  in
  let rp = run 1 in
  let best = check_pruned_sound ~kernel:"matmul" ~n:48 prog rp in
  Alcotest.(check string) "winner"
    "B[1,0/8+1;0,1/8+1]{S1:B(K,J)} x A[1,0/16+1;0,1/16+1]{S1:A(I,K)}"
    best.Tune.s_cand.Tune.c_label;
  Alcotest.check exact "winning cycles" 2241792.0 best.Tune.s_cycles;
  Alcotest.(check bool) "the bound pruner fired" true
    (rp.Tune.rp_bound_pruned <> []);
  Alcotest.(check string) "report identical at 1 and 2 domains"
    (stable_json rp) (stable_json (run 2))

let test_bound_pruning_cholesky () =
  let prog = K.cholesky_right () in
  let rp = tune_small ~kernel:"cholesky_right" ~n:40 ~sizes:[ 4; 8 ] prog in
  ignore (check_pruned_sound ~kernel:"cholesky_right" ~n:40 prog rp);
  (* single-array kernel: the bound is flat, so nothing should be (and
     nothing may unsoundly be) discarded *)
  Alcotest.(check int) "flat bound prunes nothing" 0
    (List.length rp.Tune.rp_bound_pruned)

let test_headroom_sound () =
  (* every reported candidate's simulated misses must be >= its bound,
     per machine, per level *)
  let options =
    { Tune.default_options with
      sizes = [ 8; 16 ];
      machines = [ small_cache; Model.sp2_like ] }
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
            test_cold_warm_pass ] );
      ( "report",
        [ Alcotest.test_case "schema self-check and round-trip" `Quick
            test_report_schema ] );
      ( "budget",
        [ Alcotest.test_case "starved run completes" `Quick
            test_starved_tune_completes;
          Alcotest.test_case "generous budget = unbudgeted" `Quick
            test_generous_budget_matches_unbudgeted;
          Alcotest.test_case "pruned path honours the deadline" `Quick
            test_pruned_path_deadline;
          Alcotest.test_case "caller's deadline stops every group" `Quick
            test_caller_deadline_stops_groups;
          Alcotest.test_case "caller's deadline stops the bound analysis"
            `Quick test_caller_deadline_stops_analysis;
          Alcotest.test_case "caller's deadline stops codegen and the baseline"
            `Quick test_caller_deadline_stops_codegen ] );
      ( "golden",
        [ Alcotest.test_case "matmul picks C x A, bit-for-bit" `Slow
            test_matmul_golden;
          Alcotest.test_case "cholesky picks read shackle, bit-for-bit" `Slow
            test_cholesky_golden ] );
      ( "bounds",
        [ Alcotest.test_case "matmul: pruning fires, winner unchanged" `Slow
            test_bound_pruning_matmul;
          Alcotest.test_case "cholesky: flat bound, winner unchanged" `Slow
            test_bound_pruning_cholesky;
          Alcotest.test_case "headroom >= 1 on every row" `Quick
            test_headroom_sound ] ) ]
