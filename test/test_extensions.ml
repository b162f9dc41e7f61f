(* Tests for the Section 8 extensions: reversed block traversals (the
   triangular back-solve example), non-axis-aligned cutting planes
   (Section 6.2: orientation matters for legality, not performance), and a
   randomized static-vs-dynamic legality property. *)

module Ast = Loopir.Ast
module E = Loopir.Expr
module Fexpr = Loopir.Fexpr
module K = Kernels.Builders
module Blocking = Shackle.Blocking
module Spec = Shackle.Spec

let v = E.var

(* U upper triangular with a dominant diagonal; B and X dense vectors. *)
let trisolve_init n name idx =
  match name with
  | "U" ->
    let i = idx.(0) and j = idx.(1) in
    if i > j then 0.0
    else if i = j then 2.0 +. float_of_int n
    else 1.0 /. float_of_int (1 + j - i)
  | _ -> Kernels.Inits.generic name idx

let col_j = E.Add (E.Sub (v "N", v "jj"), E.Const 1)

let trisolve_choices =
  [ ("S1", Fexpr.ref_ "U" [ col_j; col_j ]);
    ("S2", Fexpr.ref_ "U" [ v "i"; col_j ]) ]

let forward_blocking width =
  Blocking.make ~array:"U" ~rank:2
    [ { Blocking.normal = [ 0; 1 ]; width; offset = 1 } ]

let reversed_blocking width =
  Blocking.make ~array:"U" ~rank:2
    [ { Blocking.normal = [ 0; -1 ]; width; offset = 1 } ]

let test_trisolve_forward_illegal () =
  let p = K.trisolve_backward () in
  let spec = [ Spec.factor (forward_blocking 4) trisolve_choices ] in
  Alcotest.(check bool) "left-to-right blocks illegal" false
    (Pipeline.is_legal (Pipeline.create p) spec)

let test_trisolve_reversed_legal () =
  let p = K.trisolve_backward () in
  let spec = [ Spec.factor (reversed_blocking 4) trisolve_choices ] in
  Alcotest.(check bool) "right-to-left blocks legal" true
    (Pipeline.is_legal (Pipeline.create p) spec)

let test_trisolve_dynamic_cross_check () =
  let p = K.trisolve_backward () in
  let n = 23 in
  let check blocking expect_ok =
    let spec = [ Spec.factor blocking trisolve_choices ] in
    let g = Pipeline.codegen (Pipeline.create p) spec in
    let diff =
      Exec.Verify.max_diff p g ~params:[ ("N", n) ] ~init:(trisolve_init n)
    in
    Alcotest.(check bool)
      (if expect_ok then "reversed computes the right solution"
       else "forward computes a wrong solution")
      expect_ok (diff <= 1e-9)
  in
  check (reversed_blocking 4) true;
  check (forward_blocking 4) false

let test_trisolve_solution_property () =
  (* the computed X actually solves U x = b *)
  let p = K.trisolve_backward () in
  let n = 17 in
  let init = trisolve_init n in
  let spec = [ Spec.factor (reversed_blocking 5) trisolve_choices ] in
  let g = Pipeline.codegen (Pipeline.create p) spec in
  let store, _ = Exec.Verify.run_program g ~params:[ ("N", n) ] ~init in
  for i = 1 to n do
    let dot = ref 0.0 in
    for j = i to n do
      dot := !dot +. (init "U" [| i; j |] *. Exec.Store.get store "X" [| j |])
    done;
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "(Ux)(%d) = b(%d)" i i)
      (init "B" [| i |])
      !dot
  done

(* --- cutting-plane orientation (Section 6.2) --- *)

let skewed_blocking size =
  (* anti-diagonal planes crossed with column planes: same block volume as
     the axis-aligned blocking, different orientation *)
  Blocking.make ~array:"C" ~rank:2
    [ { Blocking.normal = [ 1; 1 ]; width = size; offset = 2 };
      { Blocking.normal = [ 0; 1 ]; width = size; offset = 1 } ]

let test_skewed_matmul_legal_and_correct () =
  let p = K.matmul () in
  let spec =
    [ Spec.factor (skewed_blocking 16)
        [ ("S1", Fexpr.ref_ "C" [ v "I"; v "J" ]) ] ]
  in
  let pipe = Pipeline.create p in
  Alcotest.(check bool) "skewed blocking legal" true
    (Pipeline.is_legal pipe spec);
  let g = Pipeline.codegen pipe spec in
  let init = Kernels.Inits.for_kernel "matmul" ~n:21 in
  Alcotest.(check bool) "equivalent" true
    (Exec.Verify.equivalent p g ~params:[ ("N", 21) ] ~init)

let test_orientation_volume_comparable () =
  (* Section 6.2: "to a first order of approximation, the orientation of
     the cutting planes is irrelevant as far as performance is concerned,
     provided the blocks have the same volume". *)
  let n = 96 in
  let p = K.matmul () in
  let init = Kernels.Inits.for_kernel "matmul" ~n in
  let sim spec =
    let g = Pipeline.codegen (Pipeline.create p) spec in
    Machine.Model.simulate ~machine:Machine.Model.sp2_like
      ~quality:Machine.Model.untuned g ~params:[ ("N", n) ] ~init
  in
  let axis =
    sim
      [ Spec.factor
          (Blocking.blocks_2d ~array:"C" ~size:16)
          [ ("S1", Fexpr.ref_ "C" [ v "I"; v "J" ]) ] ]
  in
  let skew =
    sim
      [ Spec.factor (skewed_blocking 16)
          [ ("S1", Fexpr.ref_ "C" [ v "I"; v "J" ]) ] ]
  in
  let misses r = (List.hd r.Machine.Model.r_levels).Machine.Model.s_misses in
  Alcotest.(check bool) "same flops" true
    (axis.Machine.Model.r_flops = skew.Machine.Model.r_flops);
  (* within 2x of each other *)
  Alcotest.(check bool) "comparable misses" true
    (misses skew < 2 * misses axis && misses axis < 2 * misses skew)

(* --- randomized static-vs-dynamic legality --- *)

let prop_legality_matches_dynamics =
  let cases =
    [ ([ "I"; "J" ], [ "L"; "K" ]); ([ "I"; "J" ], [ "L"; "J" ]);
      ([ "I"; "J" ], [ "K"; "J" ]); ([ "J"; "J" ], [ "L"; "K" ]);
      ([ "J"; "J" ], [ "L"; "J" ]); ([ "J"; "J" ], [ "K"; "J" ]) ]
  in
  QCheck.Test.make ~count:12
    ~name:"cholesky: static legality = dynamic correctness"
    QCheck.(pair (int_range 0 5) (pair (int_range 2 9) (int_range 11 25)))
    (fun (case, (block, n)) ->
      let s2, s3 = List.nth cases case in
      let rf a idx = Fexpr.ref_ a (List.map v idx) in
      let p = K.cholesky_right () in
      let spec =
        [ Spec.factor
            (Blocking.blocks_2d ~array:"A" ~size:block)
            [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" s2);
              ("S3", rf "A" s3) ] ]
      in
      let pipe = Pipeline.create p in
      let static = Pipeline.is_legal pipe spec in
      let g = Pipeline.codegen pipe spec in
      let init = Kernels.Inits.for_kernel "cholesky_right" ~n in
      let diff = Exec.Verify.max_diff p g ~params:[ ("N", n) ] ~init in
      (* a "legal" shackle must compute the right answer; an illegal one is
         allowed to be accidentally right (e.g. when blocks are so large
         nothing is reordered), so only test the forward implication *)
      (not static) || diff <= 1e-9)

let () =
  Alcotest.run "extensions"
    [ ( "trisolve (reversed traversal)",
        [ Alcotest.test_case "forward illegal" `Quick
            test_trisolve_forward_illegal;
          Alcotest.test_case "reversed legal" `Quick
            test_trisolve_reversed_legal;
          Alcotest.test_case "dynamic cross-check" `Quick
            test_trisolve_dynamic_cross_check;
          Alcotest.test_case "solves the system" `Quick
            test_trisolve_solution_property ] );
      ( "orientation",
        [ Alcotest.test_case "skewed planes legal+correct" `Quick
            test_skewed_matmul_legal_and_correct;
          Alcotest.test_case "volume comparable" `Slow
            test_orientation_volume_comparable ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_legality_matches_dynamics ] ) ]
