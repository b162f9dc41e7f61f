(* Tests for code generation: the naive Figure-5 form, the tightened
   Figure-6/7/10/14 form, execution-order preservation against the
   reference semantics, and numeric equivalence across kernels, block
   sizes and boundary cases. *)

module Ast = Loopir.Ast
module Fexpr = Loopir.Fexpr
module E = Loopir.Expr
module Walk = Loopir.Walk
module K = Kernels.Builders
module Blocking = Shackle.Blocking
module Spec = Shackle.Spec
module Refsem = Shackle.Refsem
module Naive = Codegen.Naive
module Tighten = Codegen.Tighten
module Omega = Polyhedra.Omega

let v = E.var
let rf a idx = Fexpr.ref_ a (List.map v idx)

(* Each generation charges its Omega queries to a context of its own;
   legality goes through a pipeline, which owns one. *)
let generate p spec = Tighten.generate ~solver:(Omega.Ctx.create ()) p spec

let is_legal p spec = Pipeline.is_legal (Pipeline.create p) spec

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.equal (String.sub haystack i nn) needle then true
    else go (i + 1)
  in
  go 0

let matmul_c_spec size =
  [ Spec.factor (Blocking.blocks_2d ~array:"C" ~size) [ ("S1", rf "C" [ "I"; "J" ]) ] ]

let cholesky_write_spec size =
  [ Spec.factor (Blocking.blocks_2d ~array:"A" ~size)
      [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" [ "I"; "J" ]);
        ("S3", rf "A" [ "L"; "K" ]) ] ]

(* --- naive form --- *)

let test_naive_ranges () =
  let p = K.matmul () in
  match Naive.coord_loop_ranges p (matmul_c_spec 25) with
  | [ ("t1", lo1, hi1); ("t2", _, _) ] ->
    let at_n n e = E.eval (function "N" -> n | _ -> assert false) e in
    Alcotest.(check int) "lo" 1 (at_n 100 lo1);
    Alcotest.(check int) "hi 100" 4 (at_n 100 hi1);
    Alcotest.(check int) "hi 101" 5 (at_n 101 hi1);
    Alcotest.(check int) "hi 1" 1 (at_n 1 hi1)
  | _ -> Alcotest.fail "expected two coordinate loops"

let test_naive_equivalent () =
  let p = K.matmul () in
  let naive = Naive.generate p (matmul_c_spec 7) in
  let init = Kernels.Inits.for_kernel "matmul" ~n:10 in
  Alcotest.(check bool) "same results" true
    (Exec.Verify.equivalent p naive ~params:[ ("N", 10) ] ~init)

let test_naive_name_collision () =
  let p = K.matmul () in
  let renamed =
    { p with
      Ast.body = List.map (fun n -> Ast.rename_loop_var n "I" "t1") p.Ast.body }
  in
  Alcotest.(check bool) "collision rejected" true
    (try
       ignore (Naive.generate renamed (matmul_c_spec 7));
       false
     with Invalid_argument _ -> true)

(* --- tightened form: structure --- *)

let test_figure6_shape () =
  let p = K.matmul () in
  let s = Ast.program_to_string (generate p (matmul_c_spec 25)) in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("contains " ^ frag) true (contains s frag))
    [ "do t1 = 1, floor((N + 24)/25)"; "do I = 25*t1 - 24, min(N, 25*t1)";
      "do J = 25*t2 - 24, min(N, 25*t2)"; "do K = 1, N" ];
  (* no residual guards in the perfectly blocked form *)
  let loops, guards = Tighten.stats (generate p (matmul_c_spec 25)) in
  Alcotest.(check int) "five loops" 5 loops;
  Alcotest.(check int) "no guards" 0 guards

let test_figure10_shape () =
  (* two-level blocking: outer 64 on C and A, inner 8 on C and A *)
  let p = K.matmul () in
  let c_ref = [ ("S1", rf "C" [ "I"; "J" ]) ] in
  let a_ref = [ ("S1", rf "A" [ "I"; "K" ]) ] in
  let spec =
    [ Spec.factor (Blocking.blocks_2d ~array:"C" ~size:64) c_ref;
      Spec.factor (Blocking.blocks_2d ~array:"A" ~size:64) a_ref;
      Spec.factor (Blocking.blocks_2d ~array:"C" ~size:8) c_ref;
      Spec.factor (Blocking.blocks_2d ~array:"A" ~size:8) a_ref ]
  in
  let g = generate p spec in
  let s = Ast.program_to_string g in
  (* redundant coordinates (A's row block = C's row block) collapse away,
     leaving 6 block loops + 3 point loops, all unguarded *)
  let loops, guards = Tighten.stats g in
  Alcotest.(check int) "nine loops" 9 loops;
  Alcotest.(check int) "no guards" 0 guards;
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("contains " ^ frag) true (contains s frag))
    [ "do t5 = 8*t1 - 7, min("; "do I = 8*t5 - 7, min(N, 8*t5)" ]

let test_figure14_shape () =
  let p = K.adi () in
  let blk = Blocking.storage_order ~array:"B" ~rank:2 `Col_major in
  let bref = Fexpr.ref_ "B" [ E.Sub (E.var "i", E.Const 1); E.var "k" ] in
  let spec = [ Spec.factor blk [ ("S1", bref); ("S2", bref) ] ] in
  let g = generate p spec in
  let s = Ast.program_to_string g in
  (* fusion + interchange: two loops, no guards, statements adjacent *)
  let loops, guards = Tighten.stats g in
  Alcotest.(check int) "two loops" 2 loops;
  Alcotest.(check int) "no guards" 0 guards;
  Alcotest.(check bool) "t1 outer over columns" true
    (contains s "do t1 = 1, N");
  Alcotest.(check bool) "t2 inner" true (contains s "do t2 = 1, N - 1");
  Alcotest.(check bool) "S1 fused" true (contains s "S1: X(t2 + 1, t1)");
  Alcotest.(check bool) "S2 fused" true (contains s "S2: B(t2 + 1, t1)")

let test_cholesky_tightened_structure () =
  let p = K.cholesky_right () in
  let g = generate p (cholesky_write_spec 64) in
  let s = Ast.program_to_string g in
  Alcotest.(check bool) "triangular block loop" true (contains s "do t2 = 1, t1");
  (* the hot update statement S3 carries no residual guard: its enclosing
     loops enforce everything *)
  let rec s3_guard_free ~under_if = function
    | Ast.Stmt st -> not (under_if && String.equal st.Ast.label "S3")
    | Ast.If (_, body) -> List.for_all (s3_guard_free ~under_if:true) body
    | Ast.Loop l -> List.for_all (s3_guard_free ~under_if) l.Ast.body
  in
  Alcotest.(check bool) "S3 unguarded" true
    (List.for_all (s3_guard_free ~under_if:false) g.Ast.body)

(* --- order preservation against the reference semantics --- *)

let instances_of_generated g ~params ~loop_vars =
  (* project each executed instance onto the original loop variables *)
  let acc = ref [] in
  Walk.iter_instances g ~params ~f:(fun s env ->
      let vals =
        List.map (fun v -> (v, Walk.lookup env v)) loop_vars
      in
      acc := (s.Ast.id, vals) :: !acc);
  List.rev !acc

let test_order_matches_refsem_matmul () =
  let p = K.matmul () in
  let spec = matmul_c_spec 4 in
  let params = [ ("N", 9) ] in
  let g = generate p spec in
  let got =
    instances_of_generated g ~params ~loop_vars:[ "I"; "J"; "K" ]
  in
  let expect =
    List.map
      (fun i ->
        ( i.Refsem.stmt.Ast.id,
          List.map
            (fun v -> (v, Walk.lookup i.Refsem.env v))
            [ "I"; "J"; "K" ] ))
      (Refsem.order p spec ~params)
  in
  Alcotest.(check bool) "same execution order" true (got = expect)

let test_order_matches_refsem_cholesky () =
  let p = K.cholesky_right () in
  let spec = cholesky_write_spec 5 in
  let params = [ ("N", 11) ] in
  let g = generate p spec in
  let acc = ref [] in
  Walk.iter_instances g ~params ~f:(fun s env ->
      let vars = match s.Ast.label with
        | "S1" -> [ "J" ] | "S2" -> [ "J"; "I" ] | _ -> [ "J"; "L"; "K" ]
      in
      acc := (s.Ast.id, List.map (fun v -> (v, Walk.lookup env v)) vars) :: !acc);
  let got = List.rev !acc in
  let expect =
    List.map
      (fun i ->
        let vars = match i.Refsem.stmt.Ast.label with
          | "S1" -> [ "J" ] | "S2" -> [ "J"; "I" ] | _ -> [ "J"; "L"; "K" ]
        in
        ( i.Refsem.stmt.Ast.id,
          List.map (fun v -> (v, Walk.lookup i.Refsem.env v)) vars ))
      (Refsem.order p spec ~params)
  in
  Alcotest.(check bool) "same execution order" true (got = expect)

(* --- numeric equivalence across kernels and boundary cases --- *)

let equiv ?layouts name p spec params init =
  let tight = generate p spec in
  Alcotest.(check bool) (name ^ " tightened") true
    (Exec.Verify.equivalent ?layouts p tight ~params ~init);
  let naive = Naive.generate p spec in
  Alcotest.(check bool) (name ^ " naive") true
    (Exec.Verify.equivalent ?layouts p naive ~params ~init)

let test_matmul_boundary_sizes () =
  let p = K.matmul () in
  let init = Kernels.Inits.for_kernel "matmul" ~n:0 in
  List.iter
    (fun (n, b) ->
      equiv
        (Printf.sprintf "matmul N=%d B=%d" n b)
        p (matmul_c_spec b) [ ("N", n) ] init)
    [ (10, 3); (10, 10); (10, 16); (1, 2); (7, 7); (8, 3) ]

let test_matmul_all_orders () =
  List.iter
    (fun order ->
      let p = K.matmul ~order () in
      equiv "matmul order" p (matmul_c_spec 4) [ ("N", 9) ]
        (Kernels.Inits.for_kernel "matmul" ~n:9))
    [ K.I_J_K; K.K_J_I; K.J_K_I ]

let test_cholesky_sizes () =
  let p = K.cholesky_right () in
  List.iter
    (fun (n, b) ->
      let init = Kernels.Inits.for_kernel "cholesky_right" ~n in
      equiv
        (Printf.sprintf "cholesky N=%d B=%d" n b)
        p (cholesky_write_spec b) [ ("N", n) ] init)
    [ (20, 6); (16, 16); (13, 4); (5, 8) ]

let test_cholesky_read_shackle () =
  let p = K.cholesky_right () in
  let spec =
    [ Spec.factor (Blocking.blocks_2d ~array:"A" ~size:6)
        [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" [ "J"; "J" ]);
          ("S3", rf "A" [ "K"; "J" ]) ] ]
  in
  equiv "cholesky read shackle" p spec [ ("N", 17) ]
    (Kernels.Inits.for_kernel "cholesky_right" ~n:17)

let test_cholesky_product_fully_blocked () =
  let p = K.cholesky_right () in
  let write_f =
    Spec.factor (Blocking.blocks_2d ~array:"A" ~size:6)
      [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" [ "I"; "J" ]);
        ("S3", rf "A" [ "L"; "K" ]) ]
  in
  let read_f =
    Spec.factor (Blocking.blocks_2d ~array:"A" ~size:6)
      [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" [ "J"; "J" ]);
        ("S3", rf "A" [ "K"; "J" ]) ]
  in
  let init = Kernels.Inits.for_kernel "cholesky_right" ~n:19 in
  (* both product orders are legal and correct (Section 6.1) *)
  equiv "write x read" p [ write_f; read_f ] [ ("N", 19) ] init;
  equiv "read x write" p [ read_f; write_f ] [ ("N", 19) ] init

let test_left_cholesky_shackle () =
  let p = K.cholesky_left () in
  let spec =
    [ Spec.factor (Blocking.blocks_2d ~array:"A" ~size:5)
        [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" [ "I"; "J" ]);
          ("S3", rf "A" [ "L"; "J" ]) ] ]
  in
  Alcotest.(check bool) "legal" true (is_legal p spec);
  equiv "left cholesky" p spec [ ("N", 14) ]
    (Kernels.Inits.for_kernel "cholesky_left" ~n:14)

let test_gmtry_shackle () =
  let p = K.gmtry () in
  let spec =
    [ Spec.factor (Blocking.blocks_2d ~array:"A" ~size:6)
        [ ("S1", rf "A" [ "i"; "k" ]); ("S2", rf "A" [ "i"; "j" ]) ] ]
  in
  Alcotest.(check bool) "legal" true (is_legal p spec);
  equiv "gmtry" p spec [ ("N", 17) ]
    (Kernels.Inits.for_kernel "gmtry" ~n:17)

let test_qr_column_shackle () =
  (* Section 7: QR is blocked by columns only. *)
  let p = K.qr () in
  let col w = Blocking.by_columns ~array:"A" ~width:w in
  let spec =
    [ Spec.factor (col 4)
        [ ("S0", rf "A" [ "k"; "k" ]); ("S1", rf "A" [ "i"; "k" ]);
          ("S2", rf "A" [ "k"; "k" ]); ("S3", rf "A" [ "i"; "k" ]);
          ("S4", rf "A" [ "k"; "j" ]); ("S5", rf "A" [ "i"; "j" ]);
          ("S6", rf "A" [ "i"; "j" ]) ] ]
  in
  Alcotest.(check bool) "legal" true (is_legal p spec);
  equiv "qr columns" p spec [ ("N", 13) ]
    (Kernels.Inits.for_kernel "qr" ~n:13)

let test_adi_equivalence () =
  let p = K.adi () in
  let blk = Blocking.storage_order ~array:"B" ~rank:2 `Col_major in
  let bref = Fexpr.ref_ "B" [ E.Sub (E.var "i", E.Const 1); E.var "k" ] in
  let spec = [ Spec.factor blk [ ("S1", bref); ("S2", bref) ] ] in
  equiv "adi" p spec [ ("N", 23) ] (Kernels.Inits.for_kernel "adi" ~n:23)

(* A loop whose subtree holds no statement generates nothing: the parser
   accepts an empty [do] (here one inside an [if] inside a loop, beside a
   statement that is blocked), and the tightened generator used to fail
   looking for the loop's first statement. *)
let test_empty_loop () =
  let p =
    Loopir.Parser.program
      "! empty_loop (params: N)\n\
       real A(N, N)\n\
       do J = 1, N\n\
      \  do I = 1, N\n\
      \    S1: A(I, J) = 2.0 * A(I, J)\n\
      \  end do\n\
      \  do K = 1, N\n\
      \    if (K >= J) then\n\
      \      do L = 1, K\n\
      \      end do\n\
      \    end if\n\
      \  end do\n\
       end do\n"
  in
  let spec =
    [ Spec.factor (Blocking.blocks_2d ~array:"A" ~size:3)
        [ ("S1", rf "A" [ "I"; "J" ]) ] ]
  in
  Alcotest.(check bool) "legal" true (is_legal p spec);
  let text = Ast.program_to_string (generate p spec) in
  Alcotest.(check bool) "no K or L loop" false
    (contains text "do K" || contains text "do L");
  equiv "empty loop" p spec [ ("N", 8) ] (fun _ idx ->
      float_of_int ((3 * idx.(0)) + idx.(1)))

let test_banded_cholesky_shackle () =
  let p = K.cholesky_banded () in
  let spec =
    [ Spec.factor (Blocking.blocks_2d ~array:"A" ~size:5)
        [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" [ "I"; "J" ]);
          ("S3", rf "A" [ "L"; "K" ]) ] ]
  in
  Alcotest.(check bool) "legal" true (is_legal p spec);
  let n = 18 and bw = 4 in
  let dense = Kernels.Inits.for_kernel "cholesky_banded" ~n in
  let init name idx =
    if abs (idx.(0) - idx.(1)) > bw then 0.0 else dense name idx
  in
  equiv "banded" p spec [ ("N", n); ("BW", bw) ] init;
  (* and the generated code still works when A is physically reshaped into
     band storage (the paper's post-processing data transformation) *)
  equiv ~layouts:[ ("A", Exec.Store.Banded bw) ] "banded storage" p spec
    [ ("N", n); ("BW", bw) ] init

let test_two_level_equivalence () =
  let p = K.matmul () in
  let c_ref = [ ("S1", rf "C" [ "I"; "J" ]) ] in
  let a_ref = [ ("S1", rf "A" [ "I"; "K" ]) ] in
  let spec =
    [ Spec.factor (Blocking.blocks_2d ~array:"C" ~size:16) c_ref;
      Spec.factor (Blocking.blocks_2d ~array:"A" ~size:16) a_ref;
      Spec.factor (Blocking.blocks_2d ~array:"C" ~size:4) c_ref;
      Spec.factor (Blocking.blocks_2d ~array:"A" ~size:4) a_ref ]
  in
  let tight = generate p spec in
  Alcotest.(check bool) "two-level equivalent" true
    (Exec.Verify.equivalent p tight ~params:[ ("N", 21) ]
       ~init:(Kernels.Inits.for_kernel "matmul" ~n:21))

let prop_random_blocks_preserve_order =
  (* for random block sizes and problem sizes, the generated matmul code
     executes instances in exactly the reference-semantics order *)
  QCheck.Test.make ~count:25 ~name:"random blocks match refsem order"
    QCheck.(pair (int_range 2 17) (int_range 5 26))
    (fun (b, n) ->
      let p = K.matmul () in
      let spec = matmul_c_spec b in
      let params = [ ("N", n) ] in
      let g = generate p spec in
      let got =
        instances_of_generated g ~params ~loop_vars:[ "I"; "J"; "K" ]
      in
      let expect =
        List.map
          (fun i ->
            ( i.Refsem.stmt.Ast.id,
              List.map
                (fun v -> (v, Walk.lookup i.Refsem.env v))
                [ "I"; "J"; "K" ] ))
          (Refsem.order p spec ~params)
      in
      got = expect)

let prop_random_blocks_equivalent =
  QCheck.Test.make ~count:15 ~name:"random cholesky blocks compute the factor"
    QCheck.(pair (int_range 2 13) (int_range 6 22))
    (fun (b, n) ->
      let p = K.cholesky_right () in
      let g = generate p (cholesky_write_spec b) in
      let init = Kernels.Inits.for_kernel "cholesky_right" ~n in
      Exec.Verify.equivalent p g ~params:[ ("N", n) ] ~init)

let () =
  Alcotest.run "codegen"
    [ ( "naive",
        [ Alcotest.test_case "coordinate ranges" `Quick test_naive_ranges;
          Alcotest.test_case "equivalence" `Quick test_naive_equivalent;
          Alcotest.test_case "name collision" `Quick test_naive_name_collision ] );
      ( "structure",
        [ Alcotest.test_case "Figure 6 (matmul)" `Quick test_figure6_shape;
          Alcotest.test_case "Figure 10 (two-level)" `Quick test_figure10_shape;
          Alcotest.test_case "Figure 14 (ADI fusion)" `Quick test_figure14_shape;
          Alcotest.test_case "Figure 7 (cholesky)" `Quick
            test_cholesky_tightened_structure ] );
      ( "order",
        [ Alcotest.test_case "matmul matches refsem" `Quick
            test_order_matches_refsem_matmul;
          Alcotest.test_case "cholesky matches refsem" `Quick
            test_order_matches_refsem_cholesky ] );
      ( "equivalence",
        [ Alcotest.test_case "matmul boundaries" `Slow test_matmul_boundary_sizes;
          Alcotest.test_case "matmul loop orders" `Slow test_matmul_all_orders;
          Alcotest.test_case "cholesky sizes" `Slow test_cholesky_sizes;
          Alcotest.test_case "cholesky read shackle" `Quick
            test_cholesky_read_shackle;
          Alcotest.test_case "cholesky products" `Slow
            test_cholesky_product_fully_blocked;
          Alcotest.test_case "left-looking cholesky" `Quick
            test_left_cholesky_shackle;
          Alcotest.test_case "gmtry" `Quick test_gmtry_shackle;
          Alcotest.test_case "qr columns" `Slow test_qr_column_shackle;
          Alcotest.test_case "adi" `Quick test_adi_equivalence;
          Alcotest.test_case "empty loop generates nothing" `Quick
            test_empty_loop;
          Alcotest.test_case "banded cholesky + band storage" `Slow
            test_banded_cholesky_shackle;
          Alcotest.test_case "two-level matmul" `Slow test_two_level_equivalence ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_blocks_preserve_order; prop_random_blocks_equivalent ] )
    ]
