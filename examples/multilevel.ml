(* Multi-level blocking (Section 6.3, Figure 10): a product of products
   blocks matmul for two cache levels at once.

     dune exec examples/multilevel.exe                                     *)

module Ast = Loopir.Ast
module Model = Machine.Model
module Specs = Experiments.Specs

let () =
  let prog = Kernels.Builders.matmul () in
  let pipe = Pipeline.create prog in
  let two_level = Specs.matmul_two_level ~outer:96 ~inner:16 in
  (match Pipeline.probe pipe two_level with
   | Shackle.Verdict.Legal -> print_endline "two-level product: LEGAL"
   | Shackle.Verdict.Illegal _ | Shackle.Verdict.Unknown _ ->
     print_endline "two-level product: ILLEGAL");
  let blocked = Pipeline.codegen pipe two_level in
  print_endline "--- two-level blocked matmul (Figure 10 shape) ---";
  print_string (Ast.program_to_string blocked);

  let n = 250 in
  let init = Kernels.Inits.for_kernel "matmul" ~n in
  Printf.printf "\nmax |difference| at N=%d: %g\n" 70
    (Exec.Verify.max_diff prog blocked ~params:[ ("N", 70) ]
       ~init:(Kernels.Inits.for_kernel "matmul" ~n:70));

  (* On a machine with two cache levels, one-level blocking helps the level
     it targets; the product of products helps both. *)
  let one_level = Pipeline.codegen pipe (Specs.matmul_ca ~size:96) in
  let sim p =
    Model.simulate ~machine:Model.two_level ~quality:Model.untuned p
      ~params:[ ("N", n) ] ~init
  in
  List.iter
    (fun (label, p) ->
      Format.printf "%-18s %a@." label Model.pp_result (sim p))
    [ ("unblocked", prog); ("one-level 96", one_level);
      ("two-level 96/16", blocked) ]
