(* Tests for the paper's core machinery: blockings, shackle specifications,
   Theorem 1 legality, Theorem 2 span analysis, and the reference semantics.
   The strongest test cross-validates static legality against dynamic
   behaviour: executing the code generated from an illegal shackle must
   produce wrong numbers, a legal one identical numbers. *)

module Ast = Loopir.Ast
module Fexpr = Loopir.Fexpr
module E = Loopir.Expr
module K = Kernels.Builders
module Blocking = Shackle.Blocking
module Spec = Shackle.Spec
module Legality = Shackle.Legality
module Verdict = Shackle.Verdict
module Omega = Polyhedra.Omega
module Span = Shackle.Span
module Brute = Fuzzing.Brute

let v = E.var
let rf a idx = Fexpr.ref_ a (List.map v idx)

(* --- blocking --- *)

let test_coord_of_point () =
  let b = Blocking.blocks_2d ~array:"A" ~size:25 in
  Alcotest.(check (array int)) "(1,1)" [| 1; 1 |] (Blocking.coord_of_point b [| 1; 1 |]);
  Alcotest.(check (array int)) "(25,25)" [| 1; 1 |] (Blocking.coord_of_point b [| 25; 25 |]);
  Alcotest.(check (array int)) "(26,25)" [| 2; 1 |] (Blocking.coord_of_point b [| 26; 25 |]);
  Alcotest.(check (array int)) "(100,51)" [| 4; 3 |] (Blocking.coord_of_point b [| 100; 51 |])

let test_storage_order_colmajor () =
  let b = Blocking.storage_order ~array:"B" ~rank:2 `Col_major in
  (* column-major: the column index is the leading block coordinate *)
  Alcotest.(check (array int)) "(3,7)" [| 7; 3 |] (Blocking.coord_of_point b [| 3; 7 |])

let test_skewed_blocking () =
  (* anti-diagonal cutting planes: normal [1; 1] *)
  let b =
    Blocking.make ~array:"A" ~rank:2
      [ { Blocking.normal = [ 1; 1 ]; width = 10; offset = 2 } ]
  in
  Alcotest.(check (array int)) "(1,1)" [| 1 |] (Blocking.coord_of_point b [| 1; 1 |]);
  Alcotest.(check (array int)) "(6,6)" [| 2 |] (Blocking.coord_of_point b [| 6; 6 |])

let test_membership_guard_eval () =
  let b = Blocking.blocks_2d ~array:"A" ~size:4 in
  let gs =
    Blocking.membership_guards b
      [ E.var "i"; E.var "j" ]
      ~coords:[ E.var "z1"; E.var "z2" ]
  in
  Alcotest.(check int) "four guards" 4 (List.length gs);
  let eval i j z1 z2 =
    let env = function
      | "i" -> i | "j" -> j | "z1" -> z1 | "z2" -> z2
      | _ -> assert false
    in
    List.for_all (Ast.eval_guard env) gs
  in
  Alcotest.(check bool) "inside" true (eval 5 3 2 1);
  Alcotest.(check bool) "wrong row block" false (eval 5 3 1 1);
  Alcotest.(check bool) "boundary lo" true (eval 5 1 2 1);
  Alcotest.(check bool) "boundary hi" true (eval 8 4 2 1);
  Alcotest.(check bool) "past boundary" false (eval 9 4 2 1)

let prop_membership_matches_coord =
  QCheck.Test.make ~count:500 ~name:"membership guards agree with coord_of_point"
    QCheck.(pair (pair (int_range 1 100) (int_range 1 100)) (int_range 1 12))
    (fun ((i, j), size) ->
      let b = Blocking.blocks_2d ~array:"A" ~size in
      let z = Blocking.coord_of_point b [| i; j |] in
      let gs =
        Blocking.membership_guards b
          [ E.int i; E.int j ]
          ~coords:[ E.int z.(0); E.int z.(1) ]
      in
      List.for_all (Ast.eval_guard (fun _ -> assert false)) gs)

let test_coord_ranges () =
  let b = Blocking.blocks_2d ~array:"A" ~size:25 in
  match Blocking.coord_ranges b ~extents:[ E.int 100; E.int 60 ] with
  | [ (lo1, hi1); (lo2, hi2) ] ->
    let ev e = E.eval (fun _ -> assert false) e in
    Alcotest.(check (list int)) "ranges" [ 1; 4; 1; 3 ]
      [ ev lo1; ev hi1; ev lo2; ev hi2 ]
  | _ -> Alcotest.fail "expected two ranges"

(* --- spec --- *)

let test_spec_validation () =
  let p = K.matmul () in
  (match
     Spec.factor (Blocking.blocks_2d ~array:"C" ~size:8) [ ("S1", rf "A" [ "I"; "K" ]) ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong array should be rejected");
  let f = Spec.factor (Blocking.blocks_2d ~array:"C" ~size:8) [] in
  (match Spec.validate p [ f ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing choice should be rejected");
  let ok =
    Spec.factor (Blocking.blocks_2d ~array:"C" ~size:8)
      [ ("S1", rf "C" [ "I"; "J" ]) ]
  in
  Alcotest.(check bool) "valid" true (Spec.validate p [ ok ] = Ok ())

let test_block_vector () =
  let p = K.matmul () in
  ignore p;
  let spec =
    [ Spec.factor (Blocking.blocks_2d ~array:"C" ~size:10)
        [ ("S1", rf "C" [ "I"; "J" ]) ];
      Spec.factor (Blocking.blocks_2d ~array:"A" ~size:10)
        [ ("S1", rf "A" [ "I"; "K" ]) ] ]
  in
  (* S1, matmul's only statement *)
  let s = snd (List.hd (Ast.statements (K.matmul ()))) in
  let env = function "I" -> 11 | "J" -> 5 | "K" -> 21 | _ -> assert false in
  Alcotest.(check (array int)) "concatenated coords" [| 2; 1; 2; 3 |]
    (Spec.block_vector spec s env);
  Alcotest.(check (list string)) "coord names" [ "t1"; "t2"; "t3"; "t4" ]
    (Spec.coord_names spec)

let test_dummy_reference () =
  (* Section 5.3: a statement without a reference to the blocked array gets
     a made-up one.  Block ADI's X and give S2 (which never touches X) the
     dummy X(i,k). *)
  let p = K.adi () in
  let blk = Blocking.blocks_2d ~array:"X" ~size:8 in
  let spec =
    [ Spec.factor blk [ ("S1", rf "X" [ "i"; "k" ]); ("S2", rf "X" [ "i"; "k" ]) ] ]
  in
  Alcotest.(check bool) "validates" true (Spec.validate p spec = Ok ());
  let order = Brute.order p spec ~params:[ ("N", 12) ] in
  Alcotest.(check bool) "permutation of instances" true
    (Brute.same_instances order (Brute.instances p ~params:[ ("N", 12) ]))

(* --- legality --- *)

let test_matmul_all_single_shackles_legal () =
  let p = K.matmul () in
  List.iter
    (fun (arr, idx) ->
      let spec =
        [ Spec.factor (Blocking.blocks_2d ~array:arr ~size:25) [ ("S1", rf arr idx) ] ]
      in
      Alcotest.(check bool) (arr ^ " shackle legal") true
        (Pipeline.is_legal (Pipeline.create p) spec))
    [ ("C", [ "I"; "J" ]); ("A", [ "I"; "K" ]); ("B", [ "K"; "J" ]) ]

let cholesky_choice_cases =
  (* (S2 ref, S3 ref, expected legal); S1 always A(J,J).  The paper claims
     exactly two legal; our exact checker finds three — see EXPERIMENTS.md,
     the extra one shackles S2 by its write and S3 by its read A(L,J). *)
  [ ([ "I"; "J" ], [ "L"; "K" ], true);
    ([ "I"; "J" ], [ "L"; "J" ], true);
    ([ "I"; "J" ], [ "K"; "J" ], false);
    ([ "J"; "J" ], [ "L"; "K" ], false);
    ([ "J"; "J" ], [ "L"; "J" ], false);
    ([ "J"; "J" ], [ "K"; "J" ], true) ]

let test_cholesky_six_choices () =
  let p = K.cholesky_right () in
  let blk = Blocking.blocks_2d ~array:"A" ~size:16 in
  List.iter
    (fun (s2, s3, expect) ->
      let spec =
        [ Spec.factor blk
            [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" s2); ("S3", rf "A" s3) ]
        ]
      in
      Alcotest.(check bool)
        (Printf.sprintf "S2:%s S3:%s" (String.concat "," s2) (String.concat "," s3))
        expect (Pipeline.is_legal (Pipeline.create p) spec))
    cholesky_choice_cases

let test_legality_dynamic_cross_check () =
  (* Execute code generated from each of the six shackles (bypassing the
     static verdict) and compare against the original program: the static
     verdict must agree with whether the numbers come out right. *)
  let p = K.cholesky_right () in
  let blk = Blocking.blocks_2d ~array:"A" ~size:8 in
  let n = 27 in
  let init = Kernels.Inits.for_kernel "cholesky_right" ~n in
  List.iter
    (fun (s2, s3, expect) ->
      let spec =
        [ Spec.factor blk
            [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" s2); ("S3", rf "A" s3) ]
        ]
      in
      let generated = Pipeline.codegen (Pipeline.create p) spec in
      let diff =
        Exec.Verify.max_diff p generated ~params:[ ("N", n) ] ~init
      in
      Alcotest.(check bool)
        (Printf.sprintf "dynamic check S2:%s S3:%s" (String.concat "," s2)
           (String.concat "," s3))
        expect
        (diff <= 1e-9))
    cholesky_choice_cases

let test_enumerate_choices () =
  let p = K.cholesky_right () in
  Alcotest.(check int) "six combinations" 6
    (List.length (Legality.enumerate_choices p ~array:"A"));
  Alcotest.(check int) "matmul: one C ref" 1
    (List.length (Legality.enumerate_choices (K.matmul ()) ~array:"C"))

let test_product_of_legal_is_legal () =
  let pipe = Pipeline.create (K.cholesky_right ()) in
  let write_f =
    Spec.factor (Blocking.blocks_2d ~array:"A" ~size:16)
      [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" [ "I"; "J" ]);
        ("S3", rf "A" [ "L"; "K" ]) ]
  in
  let read_f =
    Spec.factor (Blocking.blocks_2d ~array:"A" ~size:16)
      [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" [ "J"; "J" ]);
        ("S3", rf "A" [ "K"; "J" ]) ]
  in
  Alcotest.(check bool) "write x read" true
    (Pipeline.is_legal pipe (Spec.product [ write_f ] [ read_f ]));
  Alcotest.(check bool) "read x write" true
    (Pipeline.is_legal pipe (Spec.product [ read_f ] [ write_f ]))

let test_product_can_fix_illegal_factor () =
  (* Section 6: "a product M1 x M2 can be legal even if M2 by itself is
     illegal" — the outer factor carries the dependence.  In matmul, the
     only dependences are on C, carried by K; blocking A with a *reversed*
     K normal visits K blocks backwards, which is illegal alone.  An outer
     width-1 blocking of B's rows pins K exactly, so the product is legal
     (all ties are K = K'). *)
  let pipe = Pipeline.create (K.matmul ()) in
  let reversed_a =
    Spec.factor
      (Blocking.make ~array:"A" ~rank:2
         [ { Blocking.normal = [ 0; -1 ]; width = 4; offset = 1 } ])
      [ ("S1", rf "A" [ "I"; "K" ]) ]
  in
  Alcotest.(check bool) "reversed A factor illegal alone" false
    (Pipeline.is_legal pipe [ reversed_a ]);
  let outer_k =
    Spec.factor
      (Blocking.make ~array:"B" ~rank:2
         [ { Blocking.normal = [ 1; 0 ]; width = 1; offset = 1 } ])
      [ ("S1", rf "B" [ "K"; "J" ]) ]
  in
  Alcotest.(check bool) "outer K factor legal alone" true
    (Pipeline.is_legal pipe [ outer_k ]);
  Alcotest.(check bool) "product is legal" true
    (Pipeline.is_legal pipe (Spec.product [ outer_k ] [ reversed_a ]))

(* Theorem 1's level-[k] ordering system over one block-pair system: the
   destination's block comes first, agreeing with the source's on the
   coordinates before [k] and smaller at [k]. *)
let ordering_system (ps : Legality.pair_system) k =
  let dim = Polyhedra.System.dim ps.ps_system in
  let zs j = Polyhedra.Affine.var dim (ps.ps_src_base + j)
  and zd j = Polyhedra.Affine.var dim (ps.ps_dst_base + j) in
  Polyhedra.System.add_list ps.ps_system
    (List.init k (fun j -> Polyhedra.Constr.eq_of (zd j) (zs j))
    @ [ Polyhedra.Constr.lt_of (zd k) (zs k) ])

let decide_fresh sys = Omega.decide ~ctx:(Omega.Ctx.create ()) sys

let test_witness_is_first_violation () =
  (* An Illegal verdict's witness must be checkable without trusting the
     scan: a dependence of the program, a level inside the spec, a
     satisfiable ordering system, and the first such system in the order
     dependences, then disjuncts, then levels — every earlier one Unsat. *)
  let cholesky = K.cholesky_right () in
  let blk = Blocking.blocks_2d ~array:"A" ~size:16 in
  let cases =
    List.filter_map
      (fun (s2, s3, legal) ->
        if legal then None
        else
          Some
            ( Printf.sprintf "S2:%s S3:%s" (String.concat "," s2)
                (String.concat "," s3),
              cholesky,
              [ Spec.factor blk
                  [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" s2);
                    ("S3", rf "A" s3) ] ] ))
      cholesky_choice_cases
    @ [ ( "reversed A",
          K.matmul (),
          [ Spec.factor
              (Blocking.make ~array:"A" ~rank:2
                 [ { Blocking.normal = [ 0; -1 ]; width = 4; offset = 1 } ])
              [ ("S1", rf "A" [ "I"; "K" ]) ] ] ) ]
  in
  Alcotest.(check int) "four illegal cases" 4 (List.length cases);
  List.iter
    (fun (name, p, spec) ->
      let pipe = Pipeline.create p in
      let deps = Pipeline.deps pipe in
      let m = Spec.coords_dim spec in
      match Pipeline.probe pipe spec with
      | Verdict.Legal | Verdict.Unknown _ ->
        Alcotest.failf "%s: expected Illegal" name
      | Verdict.Illegal w ->
        Alcotest.(check bool) (name ^ ": dep is one of deps") true
          (List.exists (fun d -> d == w.Verdict.dep) deps);
        Alcotest.(check bool) (name ^ ": level below coordinate count") true
          (0 <= w.level && w.level < m);
        Alcotest.(check bool) (name ^ ": ordering system is Sat") true
          (List.exists
             (fun ps -> decide_fresh (ordering_system ps w.level) = Omega.Sat)
             (Legality.block_pair_systems p spec w.dep));
        let rec first_sat = function
          | [] -> None
          | (d, ps, k) :: rest -> (
            match decide_fresh (ordering_system ps k) with
            | Omega.Sat -> Some (d, k)
            | Omega.Unsat -> first_sat rest
            | Omega.Unknown reason ->
              Alcotest.failf "%s: unbudgeted query gave up: %s" name reason)
        in
        let systems =
          List.concat_map
            (fun d ->
              List.concat_map
                (fun ps -> List.init m (fun k -> (d, ps, k)))
                (Legality.block_pair_systems p spec d))
            deps
        in
        Alcotest.(check bool) (name ^ ": every earlier system is Unsat") true
          (match first_sat systems with
          | Some (d, k) -> d == w.dep && k = w.level
          | None -> false))
    cases

let test_starved_solver_is_conservative () =
  (* a shackle that is provably legal under an unlimited budget: a starved
     solver must answer Unknown (and the boolean collapse false), never
     Legal — degradation may reject, it may not admit *)
  let p = K.matmul () in
  let spec =
    [ Spec.factor (Blocking.blocks_2d ~array:"C" ~size:25)
        [ ("S1", rf "C" [ "I"; "J" ]) ] ]
  in
  let pipe = Pipeline.create p in
  Alcotest.(check bool) "legal with unlimited budget" true
    (Pipeline.is_legal pipe spec);
  let deps = Pipeline.deps pipe in
  let starved () = Polyhedra.Omega.Ctx.create ~fuel:0 () in
  let v = Legality.probe_deps ~ctx:(starved ()) p spec deps in
  (match v with
  | Verdict.Unknown reason ->
    Alcotest.(check string) "gave-up reason" "fuel" reason
  | Verdict.Legal -> Alcotest.fail "starved probe claimed Legal"
  | Verdict.Illegal _ -> Alcotest.fail "starved probe claimed Illegal");
  Alcotest.(check bool) "boolean collapse is conservative" false
    (Verdict.is_legal v)

(* --- Theorem 2 --- *)

let test_span_matmul () =
  let p = K.matmul () in
  let c_only =
    [ Spec.factor (Blocking.blocks_2d ~array:"C" ~size:25)
        [ ("S1", rf "C" [ "I"; "J" ]) ] ]
  in
  Alcotest.(check bool) "C alone leaves refs unconstrained" false
    (Span.fully_constrained p c_only);
  let c_and_a =
    c_only
    @ [ Spec.factor (Blocking.blocks_2d ~array:"A" ~size:25)
          [ ("S1", rf "A" [ "I"; "K" ]) ] ]
  in
  Alcotest.(check bool) "C x A constrains everything" true
    (Span.fully_constrained p c_and_a);
  (* B x A also works; B alone does not *)
  let b_only =
    [ Spec.factor (Blocking.blocks_2d ~array:"B" ~size:25)
        [ ("S1", rf "B" [ "K"; "J" ]) ] ]
  in
  Alcotest.(check bool) "B alone insufficient" false
    (Span.fully_constrained p b_only)

let test_span_cholesky () =
  let p = K.cholesky_right () in
  let write_f =
    [ Spec.factor (Blocking.blocks_2d ~array:"A" ~size:64)
        [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" [ "I"; "J" ]);
          ("S3", rf "A" [ "L"; "K" ]) ] ]
  in
  (* the write shackle leaves S3's reads A(L,J), A(K,J) unconstrained
     ("the reads are distributed over the entire left portion") *)
  let unconstrained = Span.unconstrained_refs p write_f in
  Alcotest.(check bool) "some refs unconstrained" true (unconstrained <> []);
  let read_f =
    [ Spec.factor (Blocking.blocks_2d ~array:"A" ~size:64)
        [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" [ "J"; "J" ]);
          ("S3", rf "A" [ "K"; "J" ]) ] ]
  in
  Alcotest.(check bool) "product fully constrains" true
    (Span.fully_constrained p (write_f @ read_f))

(* --- reference semantics --- *)

let block_of spec (i : Brute.instance) =
  Spec.block_vector spec i.stmt (fun v -> List.assoc v i.env)

let test_refsem_permutation () =
  let p = K.cholesky_right () in
  let spec =
    [ Spec.factor (Blocking.blocks_2d ~array:"A" ~size:5)
        [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" [ "I"; "J" ]);
          ("S3", rf "A" [ "L"; "K" ]) ] ]
  in
  let params = [ ("N", 13) ] in
  let order = Brute.order p spec ~params in
  Alcotest.(check bool) "permutation" true
    (Brute.same_instances order (Brute.instances p ~params));
  (* block vectors are lexicographically non-decreasing *)
  let rec nondecreasing = function
    | a :: (b :: _ as tl) ->
      compare (block_of spec a) (block_of spec b) <= 0 && nondecreasing tl
    | _ -> true
  in
  Alcotest.(check bool) "blocks in lex order" true (nondecreasing order)

let test_refsem_within_block_order () =
  let p = K.matmul () in
  let spec =
    [ Spec.factor (Blocking.blocks_2d ~array:"C" ~size:4)
        [ ("S1", rf "C" [ "I"; "J" ]) ] ]
  in
  let params = [ ("N", 8) ] in
  let order = Brute.order p spec ~params in
  (* within one block, instances appear in original lexicographic (I,J,K)
     order *)
  let in_block =
    List.filter (fun i -> block_of spec i = [| 1; 1 |]) order
  in
  let keys =
    List.map
      (fun (i : Brute.instance) ->
        (List.assoc "I" i.env, List.assoc "J" i.env, List.assoc "K" i.env))
      in_block
  in
  Alcotest.(check bool) "sorted" true (List.sort compare keys = keys);
  Alcotest.(check int) "16 points x 8 k" (4 * 4 * 8) (List.length keys)

let () =
  Alcotest.run "shackle"
    [ ( "blocking",
        [ Alcotest.test_case "coord_of_point" `Quick test_coord_of_point;
          Alcotest.test_case "storage order" `Quick test_storage_order_colmajor;
          Alcotest.test_case "skewed planes" `Quick test_skewed_blocking;
          Alcotest.test_case "membership guards" `Quick test_membership_guard_eval;
          Alcotest.test_case "coord ranges" `Quick test_coord_ranges ] );
      ( "spec",
        [ Alcotest.test_case "validation" `Quick test_spec_validation;
          Alcotest.test_case "block vector" `Quick test_block_vector;
          Alcotest.test_case "dummy reference" `Quick test_dummy_reference ] );
      ( "legality",
        [ Alcotest.test_case "matmul single shackles" `Quick
            test_matmul_all_single_shackles_legal;
          Alcotest.test_case "cholesky six choices" `Quick
            test_cholesky_six_choices;
          Alcotest.test_case "static vs dynamic" `Slow
            test_legality_dynamic_cross_check;
          Alcotest.test_case "enumerate choices" `Quick test_enumerate_choices;
          Alcotest.test_case "product of legal" `Quick
            test_product_of_legal_is_legal;
          Alcotest.test_case "product fixes illegal factor" `Slow
            test_product_can_fix_illegal_factor;
          Alcotest.test_case "witness is the first violation" `Quick
            test_witness_is_first_violation;
          Alcotest.test_case "starved solver is conservative" `Quick
            test_starved_solver_is_conservative ] );
      ( "span",
        [ Alcotest.test_case "matmul (Theorem 2)" `Quick test_span_matmul;
          Alcotest.test_case "cholesky" `Quick test_span_cholesky ] );
      ( "refsem",
        [ Alcotest.test_case "permutation + lex blocks" `Quick
            test_refsem_permutation;
          Alcotest.test_case "within-block order" `Quick
            test_refsem_within_block_order ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest [ prop_membership_matches_coord ] )
    ]
