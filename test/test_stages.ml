(* The staged simplifier's equivalence obligations, checked end to end:
   every stage must preserve the final store, the flop count AND the full
   access trace (bit for bit) of any program it is applied to — that is the
   property that lets specialization claim trace-identical execution with
   zero Omega traffic per size.  Also covers the solver-free Entail prover
   and the parametric specialization path through Pipeline. *)

module Ast = Loopir.Ast
module E = Loopir.Expr
module Entail = Loopir.Entail
module Stages = Loopir.Stages
module K = Kernels.Builders
module Specs = Experiments.Specs
module Omega = Polyhedra.Omega

let params n = [ ("N", n) ]

let contains text sub =
  let lt = String.length text and ls = String.length sub in
  let rec go i =
    if i + ls > lt then false
    else if String.equal (String.sub text i ls) sub then true
    else go (i + 1)
  in
  go 0

(* --- Entail ------------------------------------------------------- *)

let f ?lo ?hi v = Entail.fact ?lo ?hi v

let test_entail_linear () =
  let facts = [ f ~lo:(E.Const 1) "N"; f ~lo:(E.Const 1) ~hi:(E.var "N") "i" ] in
  Alcotest.(check bool) "i <= N" true (Entail.le facts (E.var "i") (E.var "N"));
  Alcotest.(check bool) "1 <= i" true (Entail.le facts (E.Const 1) (E.var "i"));
  Alcotest.(check bool) "i <= N-1 unprovable" false
    (Entail.le facts (E.var "i") (E.Sub (E.var "N", E.Const 1)));
  Alcotest.(check bool) "N <= i unprovable" false
    (Entail.le facts (E.var "N") (E.var "i"))

let test_entail_atoms () =
  let facts = [ f ~lo:(E.Const 1) "N" ] in
  (* identical non-affine atoms cancel structurally *)
  let m = E.Min (E.var "N", E.Const 25) in
  Alcotest.(check bool) "min(N,25) <= min(N,25)" true (Entail.le facts m m);
  (* min is below both arms; max above both *)
  Alcotest.(check bool) "min(N,25) <= N" true (Entail.le facts m (E.var "N"));
  Alcotest.(check bool) "min(N,25) <= 25" true (Entail.le facts m (E.Const 25));
  Alcotest.(check bool) "N <= max(N,3)" true
    (Entail.le facts (E.var "N") (E.Max (E.var "N", E.Const 3)))

let test_entail_division () =
  let facts = [ f ~lo:(E.Const 1) "N" ] in
  (* floor(N/4) <= N and 4*ceil(N/4) >= N *)
  Alcotest.(check bool) "floor(N/4) <= N" true
    (Entail.le facts (E.FloorDiv (E.var "N", 4)) (E.var "N"));
  Alcotest.(check bool) "N <= 4*ceil(N/4)" true
    (Entail.le facts (E.var "N") (E.Mul (4, E.CeilDiv (E.var "N", 4))));
  Alcotest.(check bool) "N <= floor(N/4) unprovable" false
    (Entail.le facts (E.var "N") (E.FloorDiv (E.var "N", 4)))

let test_affine_delta () =
  (* 25*t1 - N with N = 90: delta in t1 is (25, -90) *)
  let a = E.Mul (25, E.var "t1") and b = E.Const 90 in
  Alcotest.(check (option (pair int int))) "25*t1 vs 90"
    (Some (25, -90))
    (Entail.affine_delta_in ~var:"t1" a b);
  Alcotest.(check (option (pair int int))) "depends on other var" None
    (Entail.affine_delta_in ~var:"t1" (E.var "i") b)

(* --- per-stage equivalence ---------------------------------------- *)

let run_traced prog ~params ~init =
  let store, flops = Exec.Verify.run_program prog ~params ~init in
  (store, flops, (Machine.Model.record prog ~params ~init).Machine.Model.rec_trace)

let stores_identical (prog : Ast.program) s1 s2 =
  List.for_all
    (fun (d : Ast.array_decl) ->
      let a1 = Exec.Store.find s1 d.a_name and a2 = Exec.Store.find s2 d.a_name in
      a1.Exec.Store.data = a2.Exec.Store.data)
    prog.arrays

(* Apply [stage] to [prog] and require bit-identical store, flops and trace
   over the given parameter bindings. *)
let check_stage_equiv name stage prog ~params ~init =
  let prog' = stage.Stages.apply prog in
  let s1, fl1, t1 = run_traced prog ~params ~init in
  let s2, fl2, t2 = run_traced prog' ~params ~init in
  Alcotest.(check bool) (name ^ ": store bit-identical") true
    (stores_identical prog s1 s2);
  Alcotest.(check int) (name ^ ": flops") fl1 fl2;
  Alcotest.(check bool) (name ^ ": trace bit-identical") true
    (Trace.equal t1 t2)

let blocked_cases () =
  [ ("matmul_ca25",
     Pipeline.codegen (Pipeline.create (K.matmul ())) (Specs.matmul_ca ~size:25),
     "matmul");
    ("cholesky_full16",
     Pipeline.codegen (Pipeline.create (K.cholesky_right ()))
       (Specs.cholesky_fully_blocked ~size:16),
     "cholesky_right") ]

let test_stages_preserve_symbolic () =
  List.iter
    (fun (cname, prog, kernel) ->
      List.iter
        (fun n ->
          let init = Kernels.Inits.for_kernel kernel ~n in
          List.iter
            (fun (st : Stages.stage) ->
              check_stage_equiv
                (Printf.sprintf "%s %s n=%d" cname st.Stages.name n)
                st prog ~params:(params n) ~init)
            Stages.all)
        [ 23; 40 ])
    (blocked_cases ())

(* The same property on the parameter-substituted program, which is what
   actually exercises peel and collapse (constants everywhere). *)
let test_stages_preserve_substituted () =
  List.iter
    (fun (cname, prog, kernel) ->
      List.iter
        (fun n ->
          let init = Kernels.Inits.for_kernel kernel ~n in
          let subst = (Stages.subst_params ~params:(params n)).Stages.apply prog in
          List.iter
            (fun (st : Stages.stage) ->
              check_stage_equiv
                (Printf.sprintf "%s/subst %s n=%d" cname st.Stages.name n)
                st subst ~params:(params n) ~init)
            Stages.all;
          (* and the whole pipeline composed, against the symbolic form *)
          check_stage_equiv
            (Printf.sprintf "%s full specialize n=%d" cname n)
            { Stages.name = "specialize";
              obligation = "composition of per-stage obligations";
              apply = Stages.specialize ~params:(params n) }
            prog ~params:(params n) ~init)
        [ 23; 40 ])
    (blocked_cases ())

(* minmax-peel on a hand-built loop: bound min(25*w, 90) flips at w=3 *)
let test_minmax_peel_splits () =
  let src =
    "! peelcase (params: N)\n\
     real A(N)\n\
     do w = 1, 4\n\
    \  do i = 1, min(25*w, 90)\n\
    \    S1: A(i) = A(i) + 1.0\n\
    \  end do\n\
     end do\n"
  in
  let prog =
    match Loopir.Parser.program src with
    | p -> p
    | exception Loopir.Parser.Parse_error (l, m) ->
      Alcotest.failf "parse error line %d: %s" l m
  in
  let peeled = (Option.get (Stages.by_name "minmax-peel")).Stages.apply prog in
  let text = Ast.program_to_string peeled in
  Alcotest.(check bool) "no min remains" false (contains text "min(");
  let init = (fun _ _ -> 1.0) in
  let s1, fl1, t1 = run_traced prog ~params:(params 100) ~init in
  let s2, fl2, t2 = run_traced peeled ~params:(params 100) ~init in
  Alcotest.(check bool) "store" true (stores_identical prog s1 s2);
  Alcotest.(check int) "flops" fl1 fl2;
  Alcotest.(check bool) "trace" true (Trace.equal t1 t2)

(* --- specialization through Pipeline ------------------------------ *)

let test_specialize_trace_identical () =
  let prog = K.matmul () in
  let spec = Specs.matmul_ca ~size:25 in
  let pipe = Pipeline.create prog in
  let symbolic = Pipeline.codegen_cached pipe spec in
  List.iter
    (fun n ->
      let init = Kernels.Inits.for_kernel "matmul" ~n in
      let special = Pipeline.specialize ~spec pipe ~params:(params n) in
      let s1, fl1, t1 = run_traced symbolic ~params:(params n) ~init in
      let s2, fl2, t2 = run_traced special ~params:(params n) ~init in
      Alcotest.(check bool) (Printf.sprintf "store n=%d" n) true
        (stores_identical prog s1 s2);
      Alcotest.(check int) (Printf.sprintf "flops n=%d" n) fl1 fl2;
      Alcotest.(check bool) (Printf.sprintf "trace n=%d" n) true
        (Trace.equal t1 t2))
    [ 10; 25; 60; 90 ]

(* Specializing across a sweep must not touch the solver at all: the one
   Omega derivation happens at codegen_cached time. *)
let test_specialize_solver_free () =
  let prog = K.cholesky_right () in
  let spec = Specs.cholesky_fully_blocked ~size:16 in
  let solver = Omega.Ctx.create ~cache:true () in
  let pipe = Pipeline.create ~solver prog in
  ignore (Pipeline.codegen_cached pipe spec);
  let before = Omega.Ctx.queries solver in
  List.iter
    (fun n -> ignore (Pipeline.specialize ~spec pipe ~params:(params n)))
    [ 8; 16; 24; 32; 48; 64 ];
  Alcotest.(check int) "zero solver queries across the sweep" before
    (Omega.Ctx.queries solver)

(* Specialization must actually simplify: guard and loop counts shrink (or
   at worst match) and the matmul inner loops lose every min/max. *)
let test_specialize_simplifies () =
  let prog = K.matmul () in
  let spec = Specs.matmul_ca ~size:25 in
  let pipe = Pipeline.create prog in
  let symbolic = Pipeline.codegen_cached pipe spec in
  let _, sg = Codegen.Tighten.stats symbolic in
  List.iter
    (fun n ->
      let special = Pipeline.specialize ~spec pipe ~params:(params n) in
      let _, g = Codegen.Tighten.stats special in
      Alcotest.(check bool) (Printf.sprintf "guards shrink n=%d" n) true
        (g <= sg);
      Alcotest.(check int) (Printf.sprintf "matmul fully deguarded n=%d" n) 0 g;
      let text = Ast.program_to_string special in
      Alcotest.(check bool) (Printf.sprintf "no min left n=%d" n) false
        (contains text "min(");
      Alcotest.(check bool) (Printf.sprintf "no max left n=%d" n) false
        (contains text "max("))
    [ 25; 90 ]

(* The parameter list survives specialization so prepared frames still bind
   the same names. *)
let test_specialize_keeps_params () =
  let prog = K.matmul () in
  let pipe = Pipeline.create prog in
  let special =
    Pipeline.specialize ~spec:(Specs.matmul_ca ~size:25) pipe
      ~params:(params 50)
  in
  Alcotest.(check (list string)) "params kept" prog.Ast.params
    special.Ast.params;
  let init = Kernels.Inits.for_kernel "matmul" ~n:50 in
  let store = Exec.Store.create special ~params:(params 50) ~init in
  (* invoking with the N binding must not raise even though the body no
     longer mentions N *)
  ignore (Exec.Interp.run store special ~params:(params 50))

let () =
  Alcotest.run "stages"
    [ ( "entail",
        [ Alcotest.test_case "linear facts" `Quick test_entail_linear;
          Alcotest.test_case "min/max atoms" `Quick test_entail_atoms;
          Alcotest.test_case "division envelopes" `Quick test_entail_division;
          Alcotest.test_case "affine delta" `Quick test_affine_delta ] );
      ( "stage-equivalence",
        [ Alcotest.test_case "symbolic programs" `Slow
            test_stages_preserve_symbolic;
          Alcotest.test_case "substituted programs" `Slow
            test_stages_preserve_substituted;
          Alcotest.test_case "minmax peel splits" `Quick
            test_minmax_peel_splits ] );
      ( "specialize",
        [ Alcotest.test_case "trace bit-identical" `Slow
            test_specialize_trace_identical;
          Alcotest.test_case "solver-free sweep" `Quick
            test_specialize_solver_free;
          Alcotest.test_case "guards vanish" `Quick test_specialize_simplifies;
          Alcotest.test_case "params kept" `Quick test_specialize_keeps_params ] ) ]
