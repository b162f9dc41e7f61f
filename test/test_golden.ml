(* Golden codegen tests: the pretty-printed blocked code for the paper's two
   flagship kernels is pinned to checked-in expected files.  Any change to
   code generation, bound tightening, guard elimination or pretty-printing
   that alters the emitted text shows up as a readable diff here.

   To regenerate after an intentional change:
     dune exec test/test_golden.exe -- --regen   (from the repo root)
   then review the diff and commit the new .expected files. *)

module Ast = Loopir.Ast
module K = Kernels.Builders
module Specs = Experiments.Specs

let tighten p spec = Pipeline.codegen (Pipeline.create p) spec

let cases () =
  [ ( "matmul_ca_25",
      tighten (K.matmul ()) (Specs.matmul_ca ~size:25) );
    ( "cholesky_full_16",
      tighten (K.cholesky_right ())
        (Specs.cholesky_fully_blocked ~size:16) ) ]

let path name = Filename.concat "golden" (name ^ ".expected")

let read_file f =
  let ic = open_in_bin f in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file f s =
  let oc = open_out_bin f in
  output_string oc s;
  close_out oc

let check_case (name, prog) =
  let got = Ast.program_to_string prog in
  let expected = read_file (path name) in
  Alcotest.(check string) (name ^ " matches golden file") expected got

let () =
  if Array.length Sys.argv > 1 && String.equal Sys.argv.(1) "--regen" then begin
    List.iter
      (fun (name, prog) ->
        write_file (path name) (Ast.program_to_string prog);
        Printf.printf "wrote %s\n" (path name))
      (cases ())
  end
  else
    Alcotest.run "golden"
      [ ( "codegen",
          List.map
            (fun ((name, _) as case) ->
              Alcotest.test_case name `Quick (fun () -> check_case case))
            (cases ()) ) ]
