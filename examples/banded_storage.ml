(* Banded Cholesky (Section 7, Figure 15): the same shackle that blocks
   dense Cholesky is applied to the band-restricted point code, and the
   generated program runs unchanged over LAPACK-style band storage — the
   paper's "data transformation applied as a post-processing step".

     dune exec examples/banded_storage.exe                                 *)

module Ast = Loopir.Ast
module Model = Machine.Model

let () =
  let prog = Kernels.Builders.cholesky_banded () in
  print_endline "--- banded right-looking Cholesky (point code) ---";
  print_string (Ast.program_to_string prog);

  let pipe = Pipeline.create prog in
  let spec = Experiments.Specs.cholesky_banded_write ~size:32 in
  (match Pipeline.probe pipe spec with
   | Shackle.Verdict.Legal -> print_endline "\nwrite shackle: LEGAL"
   | Shackle.Verdict.Illegal _ | Shackle.Verdict.Unknown _ ->
     print_endline "\nwrite shackle: ILLEGAL");
  let blocked = Pipeline.codegen pipe spec in

  let n = 300 in
  List.iter
    (fun bw ->
      let dense = Kernels.Inits.for_kernel "cholesky_banded" ~n in
      let init name idx =
        if abs (idx.(0) - idx.(1)) > bw then 0.0 else dense name idx
      in
      let params = [ ("N", n); ("BW", bw) ] in
      let layouts = [ ("A", Exec.Store.Banded bw) ] in
      (* correctness on band storage *)
      let diff = Exec.Verify.max_diff ~layouts prog blocked ~params ~init in
      let sim p quality =
        Model.simulate ~layouts ~machine:Model.sp2_like ~quality p ~params ~init
      in
      let compiler = sim blocked Model.untuned in
      let tuned = sim blocked Model.tuned in
      Format.printf
        "bw=%3d  diff=%g  compiler: %.1f MFlops  tuned(BLAS3-like): %.1f MFlops@."
        bw diff compiler.Model.r_mflops tuned.Model.r_mflops)
    [ 4; 16; 64; 128 ]
