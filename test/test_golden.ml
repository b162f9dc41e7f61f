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

(* The spec table behind shacklec --spec, the daemon's resolver and
   perfbench: every name Specs.names lists for a kernel resolves to a spec
   that fits the kernel, "default" is the first of them, and a name the
   kernel does not list, or any name for a kernel with none, resolves to
   nothing. *)
let test_spec_names () =
  let all_names =
    List.sort_uniq compare
      (List.concat_map (fun (k, _) -> Specs.names k) (K.all ()))
  in
  let show spec = Format.asprintf "%a" Shackle.Spec.pp spec in
  List.iter
    (fun (kernel, p) ->
      let names = Specs.names kernel in
      let lookup spec = Specs.lookup ~kernel ~spec ~size:8 in
      List.iter
        (fun spec ->
          let listed = List.mem spec names in
          match lookup spec with
          | Some s -> (
            if not listed then
              Alcotest.failf "%s: %S resolves but is not listed" kernel spec;
            match Shackle.Spec.validate p s with
            | Ok () -> ()
            | Error e ->
              Alcotest.failf "%s --spec %s does not fit: %s" kernel spec e)
          | None ->
            if listed then
              Alcotest.failf "%s: listed %S does not resolve" kernel spec)
        ("nonexistent" :: all_names);
      match (names, lookup "default") with
      | [], None -> ()
      | first :: _, Some d ->
        Alcotest.(check string) (kernel ^ ": default is the first spec")
          (show (Option.get (lookup first))) (show d)
      | [], Some _ -> Alcotest.failf "%s has no specs but a default" kernel
      | _ :: _, None -> Alcotest.failf "%s has specs but no default" kernel)
    (K.all ());
  Alcotest.(check (list string)) "matmul's specs" [ "c"; "ca"; "two-level" ]
    (Specs.names "matmul");
  Alcotest.(check (list string)) "syrk has none" [] (Specs.names "syrk")

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
            (cases ()) );
        ( "specs",
          [ Alcotest.test_case "names = lookup for every kernel" `Quick
              test_spec_names ] ) ]
