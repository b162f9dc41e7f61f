(* Loop fusion + interchange as a degenerate data shackle (Section 7,
   Figure 14): blocking B into 1x1 blocks visited in storage order and
   shackling both statements to B(i-1,k) turns the two k-loops of the ADI
   kernel into one fused, interchanged loop nest with stride-1 accesses.

     dune exec examples/adi_fusion.exe                                     *)

module Ast = Loopir.Ast
module Model = Machine.Model

let () =
  let prog = Kernels.Builders.adi () in
  print_endline "--- ADI input code (Figure 14(i)) ---";
  print_string (Ast.program_to_string prog);

  let pipe = Pipeline.create prog in
  let spec = Experiments.Specs.adi_fused () in
  (match Pipeline.probe pipe spec with
   | Shackle.Verdict.Legal -> print_endline "\n1x1 storage-order shackle: LEGAL"
   | Shackle.Verdict.Illegal _ | Shackle.Verdict.Unknown _ ->
     print_endline "\nshackle: ILLEGAL");
  let fused = Pipeline.codegen pipe spec in
  print_endline "--- transformed code (Figure 14(ii)) ---";
  print_string (Ast.program_to_string fused);

  let n = 400 in
  let init = Kernels.Inits.for_kernel "adi" ~n in
  Printf.printf "\nmax |difference| at N=%d: %g\n" n
    (Exec.Verify.max_diff prog fused ~params:[ ("N", n) ] ~init);

  let n = 1000 in
  let init = Kernels.Inits.for_kernel "adi" ~n in
  let sim p =
    Model.simulate ~machine:Model.sp2_like ~quality:Model.untuned p
      ~params:[ ("N", n) ] ~init
  in
  let before = sim prog and after = sim fused in
  Format.printf "@.input : %a@." Model.pp_result before;
  Format.printf "fused : %a@." Model.pp_result after;
  Printf.printf "speedup (cycles): %.2fx  (paper reports 8.9x at n=1000)\n"
    (before.Model.r_cycles /. after.Model.r_cycles)
