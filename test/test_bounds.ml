(* Tests for the analytic communication lower bounds: the HBL exponent of
   the classic kernels, soundness of the per-level bound against the cache
   simulator (no execution — original or any legal blocked variant — may
   incur fewer misses than the bound claims), sharpening under a spec,
   monotonicity across deeper hierarchies, and the exact rational LP. *)

module K = Kernels.Builders
module Model = Machine.Model
module Blocking = Shackle.Blocking
module Spec = Shackle.Spec
module Rng = Fuzzing.Rng
module Gen = Fuzzing.Gen
module Q = Ratio

let init = Kernels.Inits.generic

(* cumulative levels of a machine, in bounds units (elements) *)
let levels_of_machine (m : Model.t) =
  Bounds.levels_of
    ~line_elems:((List.hd m.Model.levels).Model.l_cache.Machine.Cache.line_bytes
                 / m.Model.elem_bytes)
    (List.map
       (fun (l : Model.level_spec) ->
         (l.Model.l_name, l.Model.l_cache.Machine.Cache.size_bytes / m.Model.elem_bytes))
       m.Model.levels)

(* a deliberately tiny machine so capacity bounds bite at N = 6..16:
   16 lines of one element each *)
let tiny =
  { Model.m_name = "tiny";
    levels =
      [ { Model.l_name = "L1";
          l_cache = { Machine.Cache.size_bytes = 128; line_bytes = 8; assoc = 16 };
          l_hit_cycles = 1.0 } ];
    mem_cycles = 10.0;
    flop_cycles = 0.5;
    clock_mhz = 100.0;
    elem_bytes = 8 }

let check_sound ~what t machine r =
  let levels = levels_of_machine machine in
  List.iter2
    (fun lv (st : Model.level_stat) ->
      let b = Bounds.misses t lv in
      if b > st.Model.s_misses then
        Alcotest.failf "%s: bound %d exceeds simulated %s misses %d" what b
          lv.Bounds.lv_name st.Model.s_misses;
      Alcotest.(check bool)
        (what ^ ": bound positive at " ^ lv.Bounds.lv_name)
        true (b >= 1))
    levels r.Model.r_levels

(* --- the HBL exponent --- *)

let test_sigma_matmul () =
  let t = Bounds.analyze ~params:[ ("N", 8) ] (K.matmul ()) in
  match Bounds.stmts t with
  | [ s ] ->
    Alcotest.(check bool) "matmul sigma = 3/2" true
      (Q.equal s.Bounds.si_sigma (Q.of_ints 3 2));
    Alcotest.(check int) "iterations" 512 s.Bounds.si_iterations
  | l -> Alcotest.failf "expected one statement, got %d" (List.length l)

let test_sigma_syrk () =
  let t = Bounds.analyze ~params:[ ("N", 8) ] (K.syrk ()) in
  match Bounds.stmts t with
  | [ s ] ->
    Alcotest.(check bool) "syrk sigma = 3/2" true
      (Q.equal s.Bounds.si_sigma (Q.of_ints 3 2))
  | l -> Alcotest.failf "expected one statement, got %d" (List.length l)

(* --- soundness on the paper kernels, real machines --- *)

let test_sound_kernels () =
  List.iter
    (fun (name, prog) ->
      let params =
        ("N", 16) :: (if name = "cholesky_banded" then [ ("BW", 4) ] else [])
      in
      let t = Bounds.analyze ~params prog in
      List.iter
        (fun machine ->
          List.iter
            (fun quality ->
              let r =
                Model.simulate ~machine ~quality prog ~params
                  ~init:(Kernels.Inits.for_kernel name ~n:16)
              in
              check_sound
                ~what:(Printf.sprintf "%s/%s/%s" name machine.Model.m_name
                         quality.Model.q_name)
                t machine r)
            [ Model.untuned; Model.tuned ])
        [ Model.sp2_like; Model.two_level; tiny ])
    (K.all ())

(* --- soundness of the per-candidate bound over every legal tiling --- *)

let all_block_specs pipe prog ~sizes =
  let arrays = List.map (fun a -> a.Loopir.Ast.a_name) prog.Loopir.Ast.arrays in
  List.concat_map
    (fun array ->
      List.concat_map
        (fun size ->
          let blocking = Blocking.blocks_2d ~array ~size in
          List.map
            (fun choices -> [ { Spec.blocking; choices } ])
            (Pipeline.choices pipe ~array))
        sizes)
    (List.filter
       (fun a ->
         let decl =
           List.find (fun d -> d.Loopir.Ast.a_name = a) prog.Loopir.Ast.arrays
         in
         List.length decl.Loopir.Ast.extents = 2)
       arrays)

let test_sound_all_tilings () =
  List.iter
    (fun name ->
      let prog = List.assoc name (K.all ()) in
      let n = 6 in
      let params = [ ("N", n) ] in
      let pipe = Pipeline.create prog in
      let specs = all_block_specs pipe prog ~sizes:[ 2; 3 ] in
      let legal = List.filter (fun s -> Pipeline.is_legal pipe s) specs in
      Alcotest.(check bool) (name ^ ": some legal tiling") true (legal <> []);
      (* the no-spec bound is order-independent: it must hold for every
         legal blocked execution, which is brute force over the tiling
         space at this size *)
      let t0 = Bounds.analyze ~params prog in
      List.iter
        (fun spec ->
          let r =
            Model.simulate ~machine:tiny ~quality:Model.untuned
              (Pipeline.codegen pipe spec) ~params ~init
          in
          check_sound ~what:(name ^ "/order-free") t0 tiny r;
          (* the spec-aware bound is sound for that spec's execution *)
          let ts = Bounds.analyze ~spec ~params prog in
          check_sound ~what:(name ^ "/windowed") ts tiny r;
          (* and never weaker than the order-free bound *)
          let lv = List.hd (levels_of_machine tiny) in
          Alcotest.(check bool) (name ^ ": windowed >= order-free") true
            (Bounds.misses ts lv >= Bounds.misses t0 lv))
        legal)
    [ "matmul"; "cholesky_right" ]

(* --- soundness on fuzz-generated programs --- *)

let test_sound_fuzzed () =
  for seed = 1 to 25 do
    let rng = Rng.create seed in
    let prog = Gen.program ~quick:true rng in
    let params = [ ("N", 5) ] in
    match Bounds.analyze ~params prog with
    | exception Loopir.Domain.Not_affine _ -> ()
    | t ->
      List.iter
        (fun machine ->
          let r =
            Model.simulate ~machine ~quality:Model.untuned prog ~params ~init
          in
          if r.Model.r_accesses > 0 then
            check_sound
              ~what:(Printf.sprintf "fuzz seed %d/%s" seed machine.Model.m_name)
              t machine r)
        [ Model.sp2_like; tiny ]
  done

(* --- multi-level monotonicity --- *)

let test_multilevel_monotone () =
  let prog = K.matmul () in
  let spec = [ { Spec.blocking = Blocking.blocks_2d ~array:"C" ~size:4;
                 choices = [ ("S1", (List.hd (Loopir.Ast.statements prog) |> snd).Loopir.Ast.lhs) ] } ]
  in
  let t = Bounds.analyze ~spec ~params:[ ("N", 24) ] prog in
  let levels =
    Bounds.levels_of ~line_elems:2
      [ ("L1", 32); ("L2", 256); ("L3", 2048) ]
  in
  let bs = List.map (Bounds.misses t) levels in
  let rec mono = function
    | a :: (b :: _ as tl) ->
      Alcotest.(check bool) "bound non-increasing outward" true (a >= b);
      mono tl
    | _ -> ()
  in
  mono bs;
  Alcotest.(check bool) "deepest level still >= compulsory" true
    (List.for_all (fun b -> b >= 1) bs)

(* --- the prepared path --- *)

let small_cache = List.assoc "small-cache" Model.machines

(* Everything a caller reads of an analysis: the distinct-data bound, the
   statement summaries, and per machine the per-level misses and their
   decomposition. *)
let view t =
  ( Bounds.distinct t,
    List.map
      (fun (s : Bounds.stmt_info) ->
        ( s.Bounds.si_label,
          s.Bounds.si_depth,
          s.Bounds.si_iterations,
          Q.to_string s.Bounds.si_sigma ))
      (Bounds.stmts t),
    List.map
      (fun m ->
        let levels = Tune.machine_levels m in
        ( m.Model.m_name,
          List.map (Bounds.misses t) levels,
          Bounds.level_bounds t levels ))
      [ Model.sp2_like; Model.two_level; small_cache ] )

let check_view what shared one_shot =
  Alcotest.(check bool) what true (view shared = view one_shot)

(* Tune analyzes every candidate from one preparation per sweep point.
   Each analysis from a preparation shared by all of a kernel's
   candidates (and by the spec-free analysis) must equal a one-shot
   analysis, and the report's bounds must be the one-shot ones. *)
let test_prepared_equals_one_shot () =
  List.iter
    (fun name ->
      let prog = List.assoc name (K.all ()) in
      let ns = [ 12; 16 ] in
      let options = { Tune.default_options with Tune.sizes = [ 4; 8 ]; ns } in
      let report =
        Tune.tune ~options ~kernel:name ~params:[ ("N", 12) ] prog
      in
      let cands =
        List.map (fun s -> s.Tune.s_cand) report.Tune.rp_table
        @ List.map (fun b -> b.Tune.bp_cand) report.Tune.rp_bound_pruned
      in
      Alcotest.(check bool) (name ^ ": candidates") true (List.length cands > 1);
      List.iter
        (fun n ->
          let params = [ ("N", n) ] in
          let p = Bounds.prepare ~params prog in
          List.iter
            (fun (label, spec) ->
              check_view
                (Printf.sprintf "%s N=%d %s" name n label)
                (Bounds.analyze_prepared ?spec p)
                (Bounds.analyze ?spec ~params prog))
            (("no spec", None)
            :: List.map (fun c -> (c.Tune.c_label, Some c.Tune.c_spec)) cands))
        ns;
      List.iter
        (fun (s : Tune.scored) ->
          let t =
            Bounds.analyze ~spec:s.Tune.s_cand.Tune.c_spec
              ~params:[ ("N", List.hd ns) ] prog
          in
          Alcotest.(check (list (pair string (list (pair string int)))))
            (name ^ " report bounds of " ^ s.Tune.s_cand.Tune.c_label)
            (List.map
               (fun m ->
                 ( m.Model.m_name,
                   List.map
                     (fun lv -> (lv.Bounds.lv_name, Bounds.misses t lv))
                     (Tune.machine_levels m) ))
               options.Tune.machines)
            s.Tune.s_bounds)
        report.Tune.rp_table)
    [ "matmul"; "cholesky_right"; "gmtry"; "adi" ]

(* A spec whose half of the analysis raises (here: it blocks an array the
   program does not declare) fails alone: the preparation it was given
   still analyzes every other spec as a one-shot analysis does. *)
let test_spec_half_fails_alone () =
  let prog = K.matmul () in
  let params = [ ("N", 12) ] in
  let p = Bounds.prepare ~params prog in
  let spec array choice =
    [ { Spec.blocking = Blocking.blocks_2d ~array ~size:4;
        choices = [ ("S1", choice) ] } ]
  in
  let lhs = (snd (List.hd (Loopir.Ast.statements prog))).Loopir.Ast.lhs in
  let bad =
    spec "Q"
      (Loopir.Fexpr.ref_ "Q" [ Loopir.Expr.Var "I"; Loopir.Expr.Var "J" ])
  in
  let raises f =
    match f () with exception Failure _ -> true | _ -> false
  in
  Alcotest.(check bool) "prepared: spec half raises" true
    (raises (fun () -> Bounds.analyze_prepared ~spec:bad p));
  Alcotest.(check bool) "one-shot raises alike" true
    (raises (fun () -> Bounds.analyze ~spec:bad ~params prog));
  let good = spec "C" lhs in
  check_view "a good spec after the failure"
    (Bounds.analyze_prepared ~spec:good p)
    (Bounds.analyze ~spec:good ~params prog);
  check_view "no spec after the failure" (Bounds.analyze_prepared p)
    (Bounds.analyze ~params prog)

(* --- the exact LP --- *)

let test_lp () =
  let one = Q.one in
  (* max x + y  s.t.  x <= 1, y <= 1, x + y <= 3/2, x,y >= 0 *)
  let rows =
    [ ([| one; Q.zero |], one);
      ([| Q.zero; one |], one);
      ([| one; one |], Q.of_ints 3 2);
      ([| Q.neg one; Q.zero |], Q.zero);
      ([| Q.zero; Q.neg one |], Q.zero) ]
  in
  (match Bounds.Lp.optimize ~maximize:true ~dim:2 ~objective:[| one; one |] rows with
  | Some (v, _) ->
    Alcotest.(check bool) "max = 3/2" true (Q.equal v (Q.of_ints 3 2))
  | None -> Alcotest.fail "LP infeasible");
  (* min x  s.t.  x >= 2 (written -x <= -2) over the x >= 0 ray *)
  let rows = [ ([| Q.neg one |], Q.of_int (-2)); ([| Q.neg one |], Q.zero) ] in
  match Bounds.Lp.optimize ~maximize:false ~dim:1 ~objective:[| one |] rows with
  | Some (v, _) -> Alcotest.(check bool) "min = 2" true (Q.equal v (Q.of_int 2))
  | None -> Alcotest.fail "LP infeasible"

let () =
  Alcotest.run "bounds"
    [ ( "sigma",
        [ Alcotest.test_case "matmul 3/2" `Quick test_sigma_matmul;
          Alcotest.test_case "syrk 3/2" `Quick test_sigma_syrk ] );
      ( "soundness",
        [ Alcotest.test_case "paper kernels" `Slow test_sound_kernels;
          Alcotest.test_case "all tilings N=6" `Slow test_sound_all_tilings;
          Alcotest.test_case "fuzzed programs" `Slow test_sound_fuzzed ] );
      ( "prepared",
        [ Alcotest.test_case "= one-shot on tune candidates" `Slow
            test_prepared_equals_one_shot;
          Alcotest.test_case "spec half fails alone" `Quick
            test_spec_half_fails_alone ] );
      ( "structure",
        [ Alcotest.test_case "multi-level monotone" `Quick test_multilevel_monotone;
          Alcotest.test_case "rational lp" `Quick test_lp ] ) ]
