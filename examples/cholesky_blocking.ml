(* The paper's main worked example: blocking right-looking Cholesky
   factorization (Sections 4-6).

     dune exec examples/cholesky_blocking.exe                              *)

module Ast = Loopir.Ast
module Specs = Experiments.Specs
module Verdict = Shackle.Verdict
module Span = Shackle.Span

let () =
  let prog = Kernels.Builders.cholesky_right () in
  let pipe = Pipeline.create prog in
  print_endline "--- right-looking Cholesky (Figure 1(ii)) ---";
  print_string (Ast.program_to_string prog);

  (* Section 6.1: there are six ways to pick one reference to A per
     statement; test them all. *)
  print_endline "\n--- the six single-factor shackles ---";
  List.iter
    (fun choices ->
      let spec =
        [ Shackle.Spec.factor
            (Shackle.Blocking.blocks_2d ~array:"A" ~size:64)
            choices ]
      in
      let label =
        String.concat "; "
          (List.map
             (fun (l, r) ->
               Printf.sprintf "%s:%s" l
                 (Format.asprintf "%a" Loopir.Fexpr.pp_ref r))
             choices)
      in
      Printf.printf "%-55s %s\n%!" label
        (if Pipeline.is_legal pipe spec then "legal" else "ILLEGAL"))
    (Pipeline.choices pipe ~array:"A");

  (* The write shackle produces the partially blocked Figure 7 code. *)
  let write_spec = Specs.cholesky_write ~size:64 in
  print_endline "\n--- write shackle, generated code (Figure 7) ---";
  print_string (Ast.program_to_string (Pipeline.codegen pipe write_spec));

  (* Theorem 2 explains why it is only partial: S3's reads are not bounded
     by the block. *)
  let unconstrained = Span.unconstrained_refs prog write_spec in
  Printf.printf "\nunconstrained references under the write shackle: %s\n"
    (String.concat ", "
       (List.map
          (fun ((s : Ast.stmt), r) ->
            Printf.sprintf "%s:%s" s.Ast.label
              (Format.asprintf "%a" Loopir.Fexpr.pp_ref r))
          unconstrained));

  (* The product with the read shackle constrains everything and gives the
     fully blocked factorization (Section 6.1). *)
  let full = Specs.cholesky_fully_blocked ~size:64 in
  Printf.printf "fully constrained after the product: %b\n"
    (Span.fully_constrained prog full);
  (match Pipeline.probe pipe full with
   | Verdict.Legal -> print_endline "product shackle is LEGAL"
   | Verdict.Illegal _ | Verdict.Unknown _ ->
     print_endline "product shackle is ILLEGAL");

  (* Verify and simulate. *)
  let n = 120 in
  let init = Kernels.Inits.for_kernel "cholesky_right" ~n in
  let blocked = Pipeline.codegen pipe full in
  Printf.printf "max |difference| at N=%d: %g\n" n
    (Exec.Verify.max_diff prog blocked ~params:[ ("N", n) ] ~init);
  let n = 240 in
  let init = Kernels.Inits.for_kernel "cholesky_right" ~n in
  let sim p quality =
    Machine.Model.simulate ~machine:Machine.Model.sp2_like ~quality p
      ~params:[ ("N", n) ] ~init
  in
  Format.printf "@.input    : %a@." Machine.Model.pp_result
    (sim prog Machine.Model.untuned);
  Format.printf "blocked  : %a@." Machine.Model.pp_result
    (sim blocked Machine.Model.untuned);
  Format.printf "blocked, DGEMM-quality inner loops: %a@."
    Machine.Model.pp_result
    (sim blocked Machine.Model.tuned)
