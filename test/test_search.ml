(* Tests for the Section 8 automatic shackle search, through the
   autotuner ([Tune.tune]) and its default candidate-array set
   ([Search.default_arrays]). *)

module K = Kernels.Builders
module Search = Shackle.Search
module Span = Shackle.Span

let tune ~size ~kernel ~n prog =
  let options = { Tune.default_options with sizes = [ size ] } in
  Tune.tune ~options ~kernel ~params:[ ("N", n) ] prog

let winner rp =
  match Tune.best rp with
  | Some s -> s.Tune.s_cand
  | None -> Alcotest.fail "no legal candidate"

let test_matmul_search () =
  (* every candidate is legal; the winner fully constrains all references
     (e.g. the C x A product of Section 6.1) *)
  let p = K.matmul () in
  let rp = tune ~size:25 ~kernel:"matmul" ~n:50 p in
  Alcotest.(check bool) "candidates exist" true (rp.Tune.rp_table <> []);
  List.iter
    (fun s ->
      Alcotest.(check bool) "all legal" true
        (Pipeline.is_legal (Pipeline.create p) s.Tune.s_cand.Tune.c_spec))
    rp.Tune.rp_table;
  let best = winner rp in
  Alcotest.(check bool) "best fully constrained" true
    (Span.fully_constrained p best.Tune.c_spec);
  Alcotest.(check int) "best is a pair" 2 best.Tune.c_factors

let test_cholesky_search () =
  let p = K.cholesky_right () in
  let rp = tune ~size:16 ~kernel:"cholesky_right" ~n:32 p in
  let cands = List.map (fun s -> s.Tune.s_cand) rp.Tune.rp_table in
  (* three legal singles (see EXPERIMENTS.md) plus their constraining
     products *)
  let singles = List.filter (fun c -> c.Tune.c_factors = 1) cands in
  Alcotest.(check int) "three legal singles" 3 (List.length singles);
  let constrained = List.filter (fun c -> c.Tune.c_fully_constrained) cands in
  Alcotest.(check bool) "some fully constrained products" true
    (constrained <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool) "constrained are products" true
        (c.Tune.c_factors = 2))
    constrained

let test_search_results_execute_correctly () =
  let p = K.cholesky_right () in
  let n = 21 in
  let best = winner (tune ~size:8 ~kernel:"cholesky_right" ~n p) in
  let g = Pipeline.codegen (Pipeline.create p) best.Tune.c_spec in
  let init = Kernels.Inits.for_kernel "cholesky_right" ~n in
  Alcotest.(check bool) "best candidate is correct" true
    (Exec.Verify.equivalent p g ~params:[ ("N", n) ] ~init)

let test_default_arrays () =
  (* ADI: no array is rank-2 *and* referenced by both statements except A
     and B; X is missing from S2 *)
  let p = K.adi () in
  Alcotest.(check (list string)) "default arrays" [ "A"; "B" ]
    (Search.default_arrays p);
  let rp = tune ~size:8 ~kernel:"adi" ~n:24 p in
  List.iter
    (fun s ->
      List.iter
        (fun (f : Shackle.Spec.factor) ->
          Alcotest.(check bool) "X needs a dummy, so it is not auto-blocked"
            false
            (String.equal f.Shackle.Spec.blocking.Shackle.Blocking.array "X"))
        s.Tune.s_cand.Tune.c_spec)
    rp.Tune.rp_table

let test_autotune_prefers_locality () =
  (* the simulation-backed ranking puts a fully blocked candidate first *)
  let rp = tune ~size:30 ~kernel:"matmul" ~n:90 (K.matmul ()) in
  match Tune.best rp with
  | None -> Alcotest.fail "no candidate"
  | Some s ->
    Alcotest.(check bool) "cycles positive" true (s.Tune.s_cycles > 0.0);
    Alcotest.(check bool) "winner fully constrained" true
      s.Tune.s_cand.Tune.c_fully_constrained

let () =
  Alcotest.run "search"
    [ ( "search",
        [ Alcotest.test_case "matmul" `Quick test_matmul_search;
          Alcotest.test_case "cholesky" `Quick test_cholesky_search;
          Alcotest.test_case "best executes correctly" `Quick
            test_search_results_execute_correctly;
          Alcotest.test_case "default arrays" `Quick test_default_arrays ] );
      ( "autotune",
        [ Alcotest.test_case "prefers locality" `Slow
            test_autotune_prefers_locality ] ) ]
