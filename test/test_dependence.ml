(* Dependence analysis tests on the paper's kernels. *)

module Ast = Loopir.Ast
module K = Kernels.Builders
module D = Dependence.Dep

let deps_of ?params p =
  D.analyze ?params ~ctx:(Polyhedra.Omega.Ctx.create ()) p

let count_kind k deps = List.length (List.filter (fun d -> d.D.kind = k) deps)

let between label1 label2 deps =
  List.filter
    (fun d ->
      String.equal d.D.src.Ast.label label1
      && String.equal d.D.dst.Ast.label label2)
    deps

let test_matmul_deps () =
  let deps = deps_of (K.matmul ()) in
  (* Only C is written; every dependence is S1 -> S1 on C[I,J]:
     flow (write->read), anti (read->write), output (write->write). *)
  List.iter
    (fun d ->
      Alcotest.(check string) "src S1" "S1" d.D.src.Ast.label;
      Alcotest.(check string) "dst S1" "S1" d.D.dst.Ast.label;
      Alcotest.(check string) "on C" "C" d.D.src_ref.Loopir.Fexpr.array)
    deps;
  Alcotest.(check int) "flow" 1 (count_kind D.Flow deps);
  Alcotest.(check int) "anti" 1 (count_kind D.Anti deps);
  Alcotest.(check int) "output" 1 (count_kind D.Output deps);
  (* the dependence is carried by K only: a single disjunct at level 2 *)
  let flow = List.find (fun d -> d.D.kind = D.Flow) deps in
  Alcotest.(check int) "K-carried only" 1 (List.length flow.D.disjuncts)

let test_matmul_orders_agree () =
  (* All six loop orders have the same dependence counts. *)
  let base = List.length (deps_of (K.matmul ())) in
  List.iter
    (fun order ->
      Alcotest.(check int) "same dep count" base
        (List.length (deps_of (K.matmul ~order ()))))
    [ K.I_K_J; K.J_I_K; K.J_K_I; K.K_I_J; K.K_J_I ]

let test_cholesky_flow_s1_s2 () =
  let deps = deps_of (K.cholesky_right ()) in
  (* Section 5.1's example dependence: S1 writes A[J,J], S2 reads it. *)
  let s12 =
    List.filter (fun d -> d.D.kind = D.Flow) (between "S1" "S2" deps)
  in
  Alcotest.(check bool) "flow S1->S2 exists" true (s12 <> []);
  (* S2 scales the column that S3 consumes: flow S2 -> S3 *)
  let s23 =
    List.filter (fun d -> d.D.kind = D.Flow) (between "S2" "S3" deps)
  in
  Alcotest.(check bool) "flow S2->S3 exists" true (s23 <> []);
  (* S3 updates feed later S1 (diagonal sqrt): flow S3 -> S1 *)
  let s31 =
    List.filter (fun d -> d.D.kind = D.Flow) (between "S3" "S1" deps)
  in
  Alcotest.(check bool) "flow S3->S1 exists" true (s31 <> [])

let test_cholesky_no_backwards_flow () =
  let deps = deps_of (K.cholesky_right ()) in
  (* No dependence runs from S2 back to S1 on the same column except
     anti/output on A[J,J]?  S2 only reads A[J,J] and writes A[I,J] with
     I > J; S1 writes A[J,J]: an anti dependence S2 -> S1 (read before
     write) cannot exist within the same J, and for J' > J the cells
     differ... it must be absent entirely. *)
  Alcotest.(check int) "no S2->S1" 0 (List.length (between "S2" "S1" deps))

let test_adi_deps () =
  let deps = deps_of (K.adi ()) in
  (* S1 reads X(i-1,k) written by earlier S1: loop-carried flow on X.
     S2 writes B(i,k) read by both S1 and S2 at i+1: flow S2->S1, S2->S2. *)
  let flow_x =
    List.filter
      (fun d ->
        d.D.kind = D.Flow
        && String.equal d.D.src_ref.Loopir.Fexpr.array "X"
        && String.equal d.D.src.Ast.label "S1"
        && String.equal d.D.dst.Ast.label "S1")
      deps
  in
  Alcotest.(check bool) "flow S1->S1 on X" true (flow_x <> []);
  let flow_b21 =
    List.filter
      (fun d ->
        d.D.kind = D.Flow && String.equal d.D.src_ref.Loopir.Fexpr.array "B")
      (between "S2" "S1" deps)
  in
  Alcotest.(check bool) "flow S2->S1 on B" true (flow_b21 <> []);
  (* B is written by S2 and read by S1 of the NEXT i iteration; there is no
     flow S1 -> S2 (S1 does not write B or A or anything S2 reads; X is not
     read by S2). *)
  let s12_flow =
    List.filter (fun d -> d.D.kind = D.Flow) (between "S1" "S2" deps)
  in
  Alcotest.(check int) "no flow S1->S2" 0 (List.length s12_flow)

let test_qr_w_recurrence () =
  let deps = deps_of (K.qr ()) in
  (* w(j) accumulation: S5 -> S5 output and flow; S5 -> S6 flow on w *)
  let s56 =
    List.filter
      (fun d ->
        d.D.kind = D.Flow && String.equal d.D.src_ref.Loopir.Fexpr.array "w")
      (between "S5" "S6" deps)
  in
  Alcotest.(check bool) "flow S5->S6 on w" true (s56 <> []);
  (* tau: S2 (sqrt) feeds S3 (scale) *)
  let s23 =
    List.filter
      (fun d ->
        d.D.kind = D.Flow && String.equal d.D.src_ref.Loopir.Fexpr.array "tau")
      (between "S2" "S3" deps)
  in
  Alcotest.(check bool) "flow S2->S3 on tau" true (s23 <> [])

let test_fixed_params_prune () =
  (* With N = 1 the update loops of Cholesky are empty: S3 disappears from
     every dependence. *)
  let deps = deps_of ~params:[ ("N", 1) ] (K.cholesky_right ()) in
  Alcotest.(check bool) "no S3 deps at N=1" true
    (List.for_all
       (fun d ->
         (not (String.equal d.D.src.Ast.label "S3"))
         && not (String.equal d.D.dst.Ast.label "S3"))
       deps);
  (* at N = 2 they reappear *)
  let deps2 = deps_of ~params:[ ("N", 2) ] (K.cholesky_right ()) in
  Alcotest.(check bool) "S3 deps at N=2" true
    (List.exists (fun d -> String.equal d.D.dst.Ast.label "S3") deps2)

let test_banded_guard_restricts () =
  (* In the banded kernel with BW fixed to 1, S3's domain forces L = J+1 =
     K; updates touch only the first subdiagonal.  A flow dependence from
     S2 (scale, column J) to S3 must still exist. *)
  let deps =
    deps_of ~params:[ ("BW", 1) ] (K.cholesky_banded ())
  in
  let s23 =
    List.filter (fun d -> d.D.kind = D.Flow) (between "S2" "S3" deps)
  in
  Alcotest.(check bool) "flow S2->S3 in band" true (s23 <> [])

let test_disjunct_spaces_wellformed () =
  List.iter
    (fun (name, p) ->
      let deps = deps_of p in
      List.iter
        (fun d ->
          let dim = Array.length d.D.space.D.names in
          Alcotest.(check bool)
            (name ^ ": space covers both statements")
            true
            (dim
             = d.D.space.D.param_count + d.D.space.D.src_depth
               + d.D.space.D.dst_depth);
          List.iter
            (fun sys ->
              Alcotest.(check int)
                (name ^ ": disjunct dimension")
                dim
                (Polyhedra.System.dim sys))
            d.D.disjuncts)
        deps)
    [ ("matmul", K.matmul ()); ("cholesky_right", K.cholesky_right ());
      ("adi", K.adi ()) ]

let () =
  Alcotest.run "dependence"
    [ ( "kernels",
        [ Alcotest.test_case "matmul" `Quick test_matmul_deps;
          Alcotest.test_case "matmul orders" `Quick test_matmul_orders_agree;
          Alcotest.test_case "cholesky flows" `Quick test_cholesky_flow_s1_s2;
          Alcotest.test_case "cholesky absent dep" `Quick
            test_cholesky_no_backwards_flow;
          Alcotest.test_case "adi" `Quick test_adi_deps;
          Alcotest.test_case "qr recurrences" `Quick test_qr_w_recurrence;
          Alcotest.test_case "fixed params prune" `Quick test_fixed_params_prune;
          Alcotest.test_case "banded guard" `Quick test_banded_guard_restricts;
          Alcotest.test_case "well-formed spaces" `Quick
            test_disjunct_spaces_wellformed ] ) ]
