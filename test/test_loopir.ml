(* Tests for the loop IR: expressions, AST traversal, pretty-printing,
   domain extraction, access matrices. *)

module B = Bigint
module E = Loopir.Expr
module Fx = Loopir.Fexpr
module Ast = Loopir.Ast
module Dom = Loopir.Domain
module K = Kernels.Builders
module A = Polyhedra.Affine
module S = Polyhedra.System
module Omega = Polyhedra.Omega

let find_stmt p label =
  List.find (fun (_, s) -> String.equal s.Ast.label label) (Ast.statements p)

(* --- expressions --- *)

let env_of l name = List.assoc name l

let test_expr_eval () =
  let e = E.(Min (Add (Mul (25, Var "b"), Const (-24)), Var "N")) in
  Alcotest.(check int) "min picks block edge" 26
    (E.eval (env_of [ ("b", 2); ("N", 100) ]) e);
  Alcotest.(check int) "min picks N" 100
    (E.eval (env_of [ ("b", 5); ("N", 100) ]) e);
  Alcotest.(check int) "ceil" 4 (E.eval (env_of []) (E.CeilDiv (E.Const 7, 2)));
  Alcotest.(check int) "floor negative" (-4)
    (E.eval (env_of []) (E.FloorDiv (E.Const (-7), 2)))

let test_expr_simplify () =
  let e = E.(Add (Mul (1, Var "x"), Const 0)) in
  Alcotest.(check bool) "x+0 -> x" true (E.equal (E.simplify e) (E.Var "x"));
  let e2 = E.(Mul (0, Var "x")) in
  Alcotest.(check bool) "0*x -> 0" true (E.equal (E.simplify e2) (E.Const 0));
  let e3 = E.(Add (Const 2, Const 3)) in
  Alcotest.(check bool) "fold" true (E.equal (E.simplify e3) (E.Const 5))

let test_expr_affine_roundtrip () =
  let names = [| "N"; "I"; "J" |] in
  let lookup n = Array.find_index (String.equal n) names in
  let e = E.(Add (Mul (25, Var "I"), Sub (Var "N", Const 3))) in
  match E.to_affine ~lookup ~dim:3 e with
  | None -> Alcotest.fail "should be affine"
  | Some a ->
    Alcotest.(check string) "coeff I" "25" (B.to_string (A.coeff a 1));
    Alcotest.(check string) "coeff N" "1" (B.to_string (A.coeff a 0));
    Alcotest.(check string) "const" "-3" (B.to_string (A.const_of a));
    let back = E.of_affine ~names a in
    (* evaluate both on a sample point *)
    let env = env_of [ ("N", 10); ("I", 2); ("J", 7) ] in
    Alcotest.(check int) "same value" (E.eval env e) (E.eval env back)

let test_expr_nonaffine () =
  let lookup _ = Some 0 in
  Alcotest.(check bool) "min is not affine" true
    (E.to_affine ~lookup ~dim:1 (E.Min (E.Var "x", E.Const 3)) = None);
  Alcotest.(check bool) "div is not affine" true
    (E.to_affine ~lookup ~dim:1 (E.FloorDiv (E.Var "x", 2)) = None)

let prop_simplify_preserves =
  let gen =
    QCheck.Gen.(
      sized (fun n ->
          fix
            (fun self n ->
              if n <= 0 then
                oneof [ map (fun i -> E.Const i) (int_range (-20) 20);
                        oneofl [ E.Var "x"; E.Var "y" ] ]
              else
                frequency
                  [ (2, map2 (fun a b -> E.Add (a, b)) (self (n / 2)) (self (n / 2)));
                    (2, map2 (fun a b -> E.Sub (a, b)) (self (n / 2)) (self (n / 2)));
                    (1, map2 (fun k a -> E.Mul (k, a)) (int_range (-4) 4) (self (n - 1)));
                    (1, map2 (fun a b -> E.Max (a, b)) (self (n / 2)) (self (n / 2)));
                    (1, map2 (fun a b -> E.Min (a, b)) (self (n / 2)) (self (n / 2)));
                    (1, map2 (fun a d -> E.FloorDiv (a, d)) (self (n - 1)) (int_range 1 5));
                    (1, map2 (fun a d -> E.CeilDiv (a, d)) (self (n - 1)) (int_range 1 5)) ])
            (min n 8)))
  in
  QCheck.Test.make ~count:500 ~name:"simplify preserves evaluation"
    (QCheck.make ~print:E.to_string gen)
    (fun e ->
      let env = env_of [ ("x", 3); ("y", -2) ] in
      E.eval env e = E.eval env (E.simplify e))

(* --- AST traversal --- *)

let test_statements_order () =
  let p = K.cholesky_right () in
  let labels = List.map (fun (_, s) -> s.Ast.label) (Ast.statements p) in
  Alcotest.(check (list string)) "textual order" [ "S1"; "S2"; "S3" ] labels

let test_loop_vars () =
  let p = K.cholesky_right () in
  let ctx, _ = find_stmt p "S3" in
  Alcotest.(check (list string)) "S3 loops" [ "J"; "L"; "K" ] (Ast.loop_vars ctx);
  let ctx1, _ = find_stmt p "S1" in
  Alcotest.(check (list string)) "S1 loops" [ "J" ] (Ast.loop_vars ctx1)

let test_common_prefix () =
  let p = K.cholesky_right () in
  let c1, _ = find_stmt p "S1" in
  let c2, _ = find_stmt p "S2" in
  let entries, (i1, i2) = Ast.common_prefix c1 c2 in
  let loops =
    List.filter (function Ast.Eloop _ -> true | _ -> false) entries
  in
  Alcotest.(check int) "one common loop" 1 (List.length loops);
  Alcotest.(check bool) "S1 before S2" true (i1 < i2)

let test_common_prefix_siblings () =
  (* ADI: the two k loops are siblings; only the i loop is common. *)
  let p = K.adi () in
  let c1, _ = find_stmt p "S1" in
  let c2, _ = find_stmt p "S2" in
  let entries, (i1, i2) = Ast.common_prefix c1 c2 in
  let loops =
    List.filter (function Ast.Eloop _ -> true | _ -> false) entries
  in
  Alcotest.(check int) "only i common" 1 (List.length loops);
  Alcotest.(check bool) "S1's loop before S2's" true (i1 < i2)

let test_arity_ok () =
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ " arity ok") true (Ast.arity_ok p))
    (K.all ())

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.equal (String.sub haystack i nn) needle then true
    else go (i + 1)
  in
  go 0

let test_pp_contains () =
  let s = Ast.program_to_string (K.cholesky_right ()) in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("contains " ^ frag) true (contains s frag))
    [ "do J = 1, N"; "S1: A(J, J) = sqrt(A(J, J))"; "do I = J + 1, N";
      "S3: A(L, K) = A(L, K) - A(L, J) * A(K, J)" ]

let test_rename_loop_var () =
  let p = K.matmul () in
  let body' = List.map (fun n -> Ast.rename_loop_var n "I" "t7") p.Ast.body in
  let p' = { p with Ast.body = body' } in
  let s = Ast.program_to_string p' in
  Alcotest.(check bool) "no bare I loop left" true (not (contains s "do I ="));
  let ctx, st = find_stmt p' "S1" in
  Alcotest.(check (list string)) "loop vars renamed" [ "t7"; "J"; "K" ]
    (Ast.loop_vars ctx);
  Alcotest.(check bool) "lhs index renamed" true
    (Loopir.Expr.equal (List.hd st.Ast.lhs.Fx.idx) (E.Var "t7"))

(* --- domains --- *)

let test_domain_matmul () =
  let p = K.matmul () in
  let ctx, _ = find_stmt p "S1" in
  let d = Dom.domain_of p ctx in
  Alcotest.(check int) "six bound constraints" 6
    (List.length (S.constraints d));
  Alcotest.(check bool) "inside" true
    (S.satisfied_by_ints d [| 10; 1; 5; 10 |]);
  Alcotest.(check bool) "outside" false
    (S.satisfied_by_ints d [| 10; 0; 5; 10 |])

let test_domain_triangular () =
  let p = K.cholesky_right () in
  let ctx, _ = find_stmt p "S3" in
  let d = Dom.domain_of p ctx in
  (* space: N, J, L, K; requires J+1 <= K <= L <= N *)
  Alcotest.(check bool) "valid point" true
    (S.satisfied_by_ints d [| 10; 2; 7; 5 |]);
  Alcotest.(check bool) "K > L invalid" false
    (S.satisfied_by_ints d [| 10; 2; 5; 7 |]);
  Alcotest.(check bool) "K = J invalid" false
    (S.satisfied_by_ints d [| 10; 2; 5; 2 |])

let test_domain_guard () =
  let p = K.cholesky_banded () in
  let ctx, _ = find_stmt p "S2" in
  let d = Dom.domain_of p ctx in
  (* space: N, BW, J, I; band guard I-J <= BW *)
  Alcotest.(check bool) "inside band" true
    (S.satisfied_by_ints d [| 20; 3; 2; 5 |]);
  Alcotest.(check bool) "outside band" false
    (S.satisfied_by_ints d [| 20; 3; 2; 6 |])

let test_access_matrix () =
  let p = K.matmul () in
  let ctx, s = find_stmt p "S1" in
  let m = Dom.access_matrix p ctx s.Ast.lhs in
  Alcotest.(check bool) "C access matrix" true
    (Linalg.Mat.equal m (Linalg.Mat.of_int_rows [ [ 1; 0; 0 ]; [ 0; 1; 0 ] ]));
  let b_ref = List.nth (Fx.reads s.Ast.rhs) 2 in
  let mb = Dom.access_matrix p ctx b_ref in
  Alcotest.(check bool) "B access matrix" true
    (Linalg.Mat.equal mb (Linalg.Mat.of_int_rows [ [ 0; 0; 1 ]; [ 0; 1; 0 ] ]))

(* A floor piece is exactly affine once multiplied out ([2i <= N]); a max
   among the upper bounds is a disjunction no system represents. *)
let test_domain_nonaffine_rejected () =
  let bad =
    { Ast.p_name = "bad";
      params = [ "N" ];
      arrays = [ { Ast.a_name = "A"; extents = [ E.Var "N" ] } ];
      body =
        [ Ast.loop "i" (E.Const 1)
            (E.Max (E.FloorDiv (E.Var "N", 2), E.Const 3))
            [ Ast.stmt ~id:0 ~label:"S1"
                (Fx.ref_ "A" [ E.Var "i" ])
                (Fx.f 1.0) ] ] }
  in
  let ctx, _ = find_stmt bad "S1" in
  Alcotest.check_raises "non-affine bound"
    (Dom.Not_affine "max(floor((N)/2), 3)")
    (fun () -> ignore (Dom.domain_of bad ctx))

let () =
  Alcotest.run "loopir"
    [ ( "expr",
        [ Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "simplify" `Quick test_expr_simplify;
          Alcotest.test_case "affine roundtrip" `Quick test_expr_affine_roundtrip;
          Alcotest.test_case "non-affine" `Quick test_expr_nonaffine ] );
      ( "ast",
        [ Alcotest.test_case "statement order" `Quick test_statements_order;
          Alcotest.test_case "loop vars" `Quick test_loop_vars;
          Alcotest.test_case "common prefix" `Quick test_common_prefix;
          Alcotest.test_case "sibling loops" `Quick test_common_prefix_siblings;
          Alcotest.test_case "kernel arities" `Quick test_arity_ok;
          Alcotest.test_case "pretty printing" `Quick test_pp_contains;
          Alcotest.test_case "rename loop var" `Quick test_rename_loop_var ] );
      ( "domain",
        [ Alcotest.test_case "matmul box" `Quick test_domain_matmul;
          Alcotest.test_case "triangular" `Quick test_domain_triangular;
          Alcotest.test_case "band guard" `Quick test_domain_guard;
          Alcotest.test_case "access matrices" `Quick test_access_matrix;
          Alcotest.test_case "non-affine rejected" `Quick
            test_domain_nonaffine_rejected ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest [ prop_simplify_preserves ] ) ]
