(* Quickstart: shackle matrix multiplication, check legality, generate
   blocked code, verify it, and measure its locality on the simulated
   machine.

     dune exec examples/quickstart.exe                                     *)

module Ast = Loopir.Ast
module E = Loopir.Expr
module Fexpr = Loopir.Fexpr
module Blocking = Shackle.Blocking
module Spec = Shackle.Spec

let () =
  (* 1. An input program: C(I,J) += A(I,K)*B(K,J), Figure 1(i). *)
  let prog = Kernels.Builders.matmul () in
  print_endline "--- input program ---";
  print_string (Ast.program_to_string prog);

  (* 2. A data shackle: cut C into 25x25 blocks (Figure 4) and shackle the
     reference C(I,J) of statement S1 to it; then take the Cartesian
     product with the same blocking of A via A(I,K) (Section 6). *)
  let spec =
    [ Spec.factor
        (Blocking.blocks_2d ~array:"C" ~size:25)
        [ ("S1", Fexpr.ref_ "C" [ E.var "I"; E.var "J" ]) ];
      Spec.factor
        (Blocking.blocks_2d ~array:"A" ~size:25)
        [ ("S1", Fexpr.ref_ "A" [ E.var "I"; E.var "K" ]) ] ]
  in

  (* 3. Theorem 1: every dependence must see its blocks in order.  A
     pipeline charges its dependence analysis, legality test and codegen
     to one solver context of its own. *)
  let pipe = Pipeline.create prog in
  (match Pipeline.probe pipe spec with
   | Shackle.Verdict.Legal -> print_endline "\nshackle is LEGAL"
   | Shackle.Verdict.Illegal _ | Shackle.Verdict.Unknown _ ->
     print_endline "\nshackle is ILLEGAL");

  (* 4. Theorem 2: are all references bounded per block? *)
  Printf.printf "all references constrained: %b\n"
    (Shackle.Span.fully_constrained prog spec);

  (* 5. Generate blocked code (the paper's Figure 3). *)
  let blocked = Pipeline.codegen pipe spec in
  print_endline "\n--- generated blocked code ---";
  print_string (Ast.program_to_string blocked);

  (* 6. Verify: same answers as the original program. *)
  let n = 60 in
  let init = Kernels.Inits.for_kernel "matmul" ~n in
  let diff = Exec.Verify.max_diff prog blocked ~params:[ ("N", n) ] ~init in
  Printf.printf "\nmax |original - blocked| at N=%d: %g\n" n diff;

  (* 7. Simulate both on the SP-2 stand-in. *)
  let n = 150 in
  let init = Kernels.Inits.for_kernel "matmul" ~n in
  let sim p =
    Machine.Model.simulate ~machine:Machine.Model.sp2_like
      ~quality:Machine.Model.untuned p ~params:[ ("N", n) ] ~init
  in
  Format.printf "@.original: %a@." Machine.Model.pp_result (sim prog);
  Format.printf "blocked : %a@." Machine.Model.pp_result (sim blocked)
