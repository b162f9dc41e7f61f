(* Round-trip tests for the concrete syntax: every kernel, and every
   generated (blocked) program, must survive pretty-print -> parse ->
   pretty-print both textually and semantically. *)

module Ast = Loopir.Ast
module P = Loopir.Parser
module K = Kernels.Builders

(* Tightened code from a pipeline of its own, as [shacklec codegen] makes
   it. *)
let tighten p spec = Pipeline.codegen (Pipeline.create p) spec

let text_roundtrip name p =
  let s1 = Ast.program_to_string p in
  let p2 = P.program s1 in
  let s2 = Ast.program_to_string p2 in
  Alcotest.(check string) (name ^ " pp fixpoint") s1 s2

let semantic_roundtrip name p ~params ~init =
  let p2 = P.roundtrip p in
  Alcotest.(check bool) (name ^ " same results") true
    (Exec.Verify.max_diff p p2 ~params ~init = 0.0)

let test_kernels_roundtrip () =
  List.iter (fun (name, p) -> text_roundtrip name p) (K.all ())

let test_kernels_semantic () =
  List.iter
    (fun (name, p) ->
      let n = 9 in
      let params =
        if List.mem "BW" p.Ast.params then [ ("N", n); ("BW", 3) ]
        else [ ("N", n) ]
      in
      let base = Kernels.Inits.for_kernel name ~n in
      let init a idx =
        if String.equal name "trisolve_backward" && String.equal a "U"
           && idx.(0) > idx.(1)
        then 0.0
        else if String.equal a "U" && idx.(0) = idx.(1) then 5.0
        else base a idx
      in
      semantic_roundtrip name p ~params ~init)
    (K.all ())

let test_generated_roundtrip () =
  (* blocked programs exercise min/max/floor/ceil bounds and guards *)
  let cases =
    [ ("matmul blocked",
       tighten (K.matmul ()) (Experiments.Specs.matmul_ca ~size:25));
      ("matmul naive",
       Codegen.Naive.generate (K.matmul ()) (Experiments.Specs.matmul_c ~size:25));
      ("cholesky blocked",
       tighten (K.cholesky_right ())
         (Experiments.Specs.cholesky_fully_blocked ~size:16));
      ("two-level",
       tighten (K.matmul ())
         (Experiments.Specs.matmul_two_level ~outer:64 ~inner:8));
      ("adi fused",
       tighten (K.adi ()) (Experiments.Specs.adi_fused ())) ]
  in
  List.iter (fun (name, p) -> text_roundtrip name p) cases

let test_generated_semantic () =
  let p =
    tighten (K.cholesky_right ())
      (Experiments.Specs.cholesky_fully_blocked ~size:8)
  in
  semantic_roundtrip "cholesky blocked" p ~params:[ ("N", 21) ]
    ~init:(Kernels.Inits.for_kernel "cholesky_right" ~n:21)

let test_statement_ids_sequential () =
  let p = P.roundtrip (K.cholesky_right ()) in
  let ids = List.map (fun (_, s) -> s.Ast.id) (Ast.statements p) in
  Alcotest.(check (list int)) "ids in textual order" [ 0; 1; 2 ] ids

let test_parse_errors () =
  let bad lineno text =
    match P.program text with
    | exception P.Parse_error (l, _) -> Alcotest.(check int) "line" lineno l
    | _ -> Alcotest.fail "expected parse error"
  in
  bad 1 "do I = 1";
  bad 1 "S1: A(I = 2.0";
  bad 2 "do I = 1, N\nS1: A(I) = I * I\nend do";
  (* non-linear product in a subscript: I * I *)
  bad 1 "S1: A(3 $) = 1.0"

(* [text] fails to parse on line [lineno] with message [msg]. *)
let bad_at lineno text msg =
  match P.program text with
  | exception P.Parse_error (l, m) ->
    Alcotest.(check int) "line" lineno l;
    Alcotest.(check string) "message" msg m
  | _ -> Alcotest.fail "expected parse error"

(* matmul's text with its K loop header and S1's product replaced *)
let matmul_text k_loop product =
  String.concat "\n"
    [ "real C(N, N)"; "real A(N, N)"; "real B(N, N)"; "do I = 1, N";
      "do J = 1, N"; k_loop;
      "S1: C(I, J) = C(I, J) + " ^ product; "end do"; "end do"; "end do" ]

(* A literal the native int or float cannot hold is a parse error on its
   own line, not an exception escaping the lexer. *)
let test_literal_errors () =
  bad_at 6
    (matmul_text "do K = 99999999999999999999, N" "A(I, K) * B(K, J)")
    "integer literal 99999999999999999999 out of range";
  bad_at 7
    (matmul_text "do K = 1, N" "A(I, K) * 1.0e")
    "malformed float literal 1.0e"

(* A zero divisor in floor/ceil is a parse error on its line: in a loop
   bound it used to escape as Domain.Not_affine, in a subscript as
   Division_by_zero when the program ran. *)
let test_zero_divisor () =
  bad_at 6
    (matmul_text "do K = 1, floor((N)/0)" "A(I, K) * B(K, J)")
    "zero divisor in floor";
  bad_at 7
    (matmul_text "do K = 1, N" "A(floor(I/0), K) * B(K, J)")
    "zero divisor in floor";
  bad_at 6
    (matmul_text "do K = ceil(N/0), N" "A(I, K) * B(K, J)")
    "zero divisor in ceil"

(* A name, array or subscript count that analysis cannot resolve is a
   parse error on its line.  An undeclared bound used to escape as
   Domain.Not_affine, and a wrong subscript count as List.map2's
   Invalid_argument, or to parse silently. *)
let matmul_with_header k_loop product =
  "! matmul (params: N)\n" ^ matmul_text k_loop product

let test_undeclared_name () =
  bad_at 7
    (matmul_with_header "do K = 1, M" "A(I, K) * B(K, J)")
    "name M is neither an enclosing loop variable nor a parameter";
  (* K is a loop variable only inside its own loop *)
  bad_at 4
    "! t (params: N)\nreal A(N)\ndo I = 1, N\nif (I <= K) then\n\
     S1: A(I) = 1.0\nend if\nend do"
    "name K is neither an enclosing loop variable nor a parameter";
  (* matmul_text has no header, so N is undeclared there too, first in
     C's extents on line 1 *)
  bad_at 1 (matmul_text "do K = 1, N" "A(I, K) * B(K, J)")
    "name N is neither an enclosing loop variable nor a parameter"

(* Only header parameters are in scope in an array's extents, checked on
   its declaration line.  An undeclared extent used to parse, and
   analysis went on with it. *)
let test_undeclared_extent () =
  bad_at 2
    ("! matmul (params: N)\nreal C(M, N)\n"
    ^ String.concat "\n"
        (List.tl
           (String.split_on_char '\n'
              (matmul_text "do K = 1, N" "A(I, K) * B(K, J)"))))
    "name M is neither an enclosing loop variable nor a parameter";
  (* a loop variable is not in scope in a declaration *)
  bad_at 3 "! t (params: N)\ndo I = 1, N\nreal A(I)\nend do"
    "name I is neither an enclosing loop variable nor a parameter";
  (* nor is a parameter declared on a later line *)
  bad_at 1 "real A(N)\n! t (params: N)"
    "name N is neither an enclosing loop variable nor a parameter"

let test_undeclared_array () =
  bad_at 8
    (matmul_with_header "do K = 1, N" "A(I, K) * Q(K, J)")
    "array Q is not declared"

let test_subscript_count () =
  bad_at 8
    (matmul_with_header "do K = 1, N" "A(I) * B(K, J)")
    "array A has rank 2 but is referenced with 1 subscripts"

(* Text after a line's syntax is a parse error on its line, whatever the
   line: only statement lines used to check, and on a declaration, loop,
   guard or end line the rest was dropped (a second array, a statement,
   a stray word). *)
let test_trailing_tokens () =
  let square body =
    String.concat "\n"
      ([ "! t (params: N)"; "real A(N, N)"; "do J = 1, N" ] @ body @ [ "end do" ])
  in
  bad_at 2
    "! t (params: N)\nreal A(N, N) B(N)\nS1: A(1, 1) = 1.0"
    "trailing tokens: B ( N )";
  bad_at 4
    (square [ "if (J >= 2) then S9: A(J, J) = 5.0"; "end if" ])
    "trailing tokens: S9 : A ( J , J ) = 5.";
  bad_at 6
    (square [ "S1: A(J, J) = 1.0"; "do K = 1, N"; "end do S2: A(1, 1) = 3.0" ])
    "trailing tokens: S2 : A ( 1 , 1 ) = 3.";
  bad_at 7
    (matmul_with_header "do K = 1, N junk" "A(I, K) * B(K, J)")
    "trailing tokens: junk";
  bad_at 4 (square [ "S1: A(J, J) = 1.0 2.0" ]) "trailing tokens: 2."

let test_analysis_after_parse () =
  (* a parsed program is a first-class citizen: dependence analysis and
     shackling work on it *)
  let pipe = Pipeline.create (P.roundtrip (K.cholesky_right ())) in
  Alcotest.(check bool) "deps found" true (Pipeline.deps pipe <> []);
  Alcotest.(check bool) "shackle legal" true
    (Pipeline.is_legal pipe (Experiments.Specs.cholesky_write ~size:16))

let prop_iexpr_roundtrip =
  (* random index expressions survive print -> parse with the same value *)
  let gen =
    QCheck.Gen.(
      sized
        (fix (fun self n ->
             if n <= 0 then
               oneof
                 [ map (fun i -> Loopir.Expr.Const i) (int_range (-30) 30);
                   oneofl [ Loopir.Expr.Var "x"; Loopir.Expr.Var "y" ] ]
             else
               frequency
                 [ (3, map2 (fun a b -> Loopir.Expr.Add (a, b)) (self (n / 2)) (self (n / 2)));
                   (3, map2 (fun a b -> Loopir.Expr.Sub (a, b)) (self (n / 2)) (self (n / 2)));
                   (2, map2 (fun k a -> Loopir.Expr.Mul (k, a)) (int_range (-5) 5) (self (n - 1)));
                   (1, map2 (fun a b -> Loopir.Expr.Max (a, b)) (self (n / 2)) (self (n / 2)));
                   (1, map2 (fun a b -> Loopir.Expr.Min (a, b)) (self (n / 2)) (self (n / 2)));
                   (1, map2 (fun a d -> Loopir.Expr.FloorDiv (a, d)) (self (n - 1)) (int_range 1 7));
                   (1, map2 (fun a d -> Loopir.Expr.CeilDiv (a, d)) (self (n - 1)) (int_range 1 7)) ])))
  in
  QCheck.Test.make ~count:500 ~name:"index expressions roundtrip"
    (QCheck.make ~print:Loopir.Expr.to_string gen)
    (fun e ->
      (* embed in a loop bound, print the program, parse it back *)
      let prog =
        { Ast.p_name = "t";
          params = [ "x"; "y" ];
          arrays = [ { Ast.a_name = "A"; extents = [ Loopir.Expr.Const 9 ] } ];
          body =
            [ Ast.loop "i" (Loopir.Expr.Const 1) e
                [ Ast.stmt ~id:0 ~label:"S1"
                    (Loopir.Fexpr.ref_ "A" [ Loopir.Expr.Const 1 ])
                    (Loopir.Fexpr.f 1.0) ] ] }
      in
      let prog2 = P.roundtrip prog in
      match prog2.Ast.body with
      | [ Ast.Loop l ] ->
        let env = function "x" -> 3 | "y" -> -2 | _ -> assert false in
        Loopir.Expr.eval env l.Ast.hi = Loopir.Expr.eval env e
      | _ -> false)

let test_fuzzed_roundtrip () =
  (* fuzz-generated programs: imperfect nests, triangular bounds, guards,
     1-3D arrays — print -> parse must be a textual fixpoint and preserve
     semantics exactly (same instances in the same order) *)
  for seed = 1 to 120 do
    let p = Fuzzing.Gen.program (Fuzzing.Rng.create seed) in
    text_roundtrip (Printf.sprintf "fuzzed seed %d" seed) p;
    semantic_roundtrip
      (Printf.sprintf "fuzzed seed %d" seed)
      p
      ~params:[ ("N", 5) ]
      ~init:(fun a idx ->
        float_of_int ((Char.code a.[0] + (17 * Array.fold_left ( + ) 0 idx)) mod 13)
        /. 8.0)
  done

(* Every named shackle's generated code at size 8, printed and parsed
   back, as [shacklec block] then [shacklec parse] does it: its floor and
   ceiling bound pieces are exactly affine, so dependence analysis runs on
   it; a [max] in an upper bound or a [min] in a lower bound is not, and
   [Pipeline.parse] names it in an [Error] instead of the analysis
   raising. *)
let refused =
  [ ("cholesky_right", "read"); ("cholesky_right", "left");
    ("cholesky_left", "read"); ("cholesky_left", "left");
    ("cholesky_banded", "write"); ("gmtry", "write") ]

let test_blocked_analysis () =
  let analyzed = ref 0 in
  List.iter
    (fun (kernel, specs) ->
      let p = List.assoc kernel (K.all ()) in
      List.iter
        (fun (name, build) ->
          let what = kernel ^ "/" ^ name in
          let text = Ast.program_to_string (tighten p (build ~size:8)) in
          match Pipeline.parse text with
          | Ok pipe ->
            if List.mem (kernel, name) refused then
              Alcotest.failf "%s: parsed, but it has a max or min bound" what;
            ignore (Pipeline.deps pipe);
            incr analyzed
          | Error msg ->
            if not (List.mem (kernel, name) refused) then
              Alcotest.failf "%s: %s" what msg;
            let names_minmax =
              String.starts_with ~prefix:"not analyzable: max(" msg
              || String.starts_with ~prefix:"not analyzable: min(" msg
            in
            if not names_minmax then
              Alcotest.failf "%s: the error names no max or min: %s" what msg)
        specs)
    Experiments.Specs.table;
  Alcotest.(check int) "analyzed" 9 !analyzed

(* The four floor and ceiling pieces, each alone as a bound of [t] under a
   parameter [N]: the domain holds exactly the points the loop visits. *)
let test_floor_ceil_bounds () =
  let module E = Loopir.Expr in
  let n = E.var "N" in
  let pieces =
    [ E.FloorDiv (E.(n + int 5), 4); E.CeilDiv (E.(n - int 3), 3);
      E.FloorDiv (E.((2 * n) - int 7), 5); E.CeilDiv (E.(n + int 1), 2) ]
  in
  let stmt =
    Ast.stmt ~id:0 ~label:"S1"
      (Loopir.Fexpr.ref_ "A" [ E.var "t" ])
      (Loopir.Fexpr.f 0.0)
  in
  List.iter
    (fun (lo, hi) ->
      let prog =
        { Ast.p_name = "bounds"; params = [ "N" ];
          arrays = [ { Ast.a_name = "A"; extents = [ E.int 64 ] } ];
          body = [ Ast.loop "t" lo hi [ stmt ] ] }
      in
      let ctx, _ = List.hd (Ast.statements prog) in
      let dom = Loopir.Domain.domain_of prog ctx in
      for nv = -12 to 12 do
        let env x = if x = "N" then nv else invalid_arg x in
        for t = -12 to 12 do
          let visits = E.eval env lo <= t && t <= E.eval env hi in
          if Polyhedra.System.satisfied_by_ints dom [| nv; t |] <> visits then
            Alcotest.failf "t = %d, N = %d: %s to %s" t nv (E.to_string lo)
              (E.to_string hi)
        done
      done)
    (List.concat_map
       (fun lo -> List.map (fun hi -> (lo, hi)) (n :: pieces))
       (E.int 0 :: pieces))

let () =
  Alcotest.run "parser"
    [ ( "roundtrip",
        [ Alcotest.test_case "kernels (textual)" `Quick test_kernels_roundtrip;
          Alcotest.test_case "kernels (semantic)" `Quick test_kernels_semantic;
          Alcotest.test_case "generated code (textual)" `Quick
            test_generated_roundtrip;
          Alcotest.test_case "generated code (semantic)" `Quick
            test_generated_semantic;
          Alcotest.test_case "statement ids" `Quick test_statement_ids_sequential;
          Alcotest.test_case "fuzzed programs" `Quick test_fuzzed_roundtrip ] );
      ( "errors",
        [ Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "bad numeric literals" `Quick
            test_literal_errors;
          Alcotest.test_case "zero divisor in floor/ceil" `Quick
            test_zero_divisor;
          Alcotest.test_case "undeclared name" `Quick test_undeclared_name;
          Alcotest.test_case "undeclared extent name" `Quick
            test_undeclared_extent;
          Alcotest.test_case "undeclared array" `Quick test_undeclared_array;
          Alcotest.test_case "subscript count" `Quick test_subscript_count;
          Alcotest.test_case "trailing tokens" `Quick test_trailing_tokens ] );
      ( "integration",
        [ Alcotest.test_case "analysis after parse" `Quick
            test_analysis_after_parse;
          Alcotest.test_case "floor and ceiling bounds are exact" `Quick
            test_floor_ceil_bounds;
          Alcotest.test_case "blocked programs analyze or fail cleanly" `Quick
            test_blocked_analysis ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest [ prop_iexpr_roundtrip ] ) ]
