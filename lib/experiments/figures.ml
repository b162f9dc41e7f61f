(* One runner per table/figure of the paper's evaluation (plus the
   code-shape figures from the body of the paper and two ablations).
   Each runner returns a [figure] whose rows are printed by bench/main.ml
   and recorded in EXPERIMENTS.md.

   Every simulation point is an independent (program, size, quality)
   triple, so the perf runners fan their points out over a Domain-based
   work pool ([Runner.map ~domains]); each task records metrics rows into
   a domain-local collector, and results come back in deterministic input
   order, so [~domains:1] and [~domains:n] produce identical figures.

   Within a point, series sharing a program variant share one recording:
   the variant is specialized at the point's sizes, the interpreter runs
   once and each (machine, quality) series replays the captured trace
   ([Metrics.record_replay]). *)

module Ast = Loopir.Ast
module K = Kernels.Builders
module Model = Machine.Model
module Json = Observe.Json
module Metrics = Observe.Metrics

(* All parsing / legality / codegen goes through the Pipeline facade: one
   [Pipeline.t] per kernel binds the program to a memoizing solver context,
   so a figure that generates several variants of one kernel shares its
   dependence analysis and legality cache. *)
let codegen prog spec = Pipeline.codegen (Pipeline.create prog) spec

type row = { r_label : string; r_cols : (string * float) list }

type figure = {
  f_id : string;
  f_title : string;
  f_header : string list;
  f_rows : row list;
  f_note : string;
  f_domains : int;   (* pool width the figure was computed with *)
  f_seconds : float; (* wall-clock of the whole figure *)
  f_codegen_seconds : float; (* symbolic codegen, shared by the whole sweep *)
  f_solver : Metrics.solver option; (* figure pipeline's solver counters *)
  f_metrics : Metrics.sim list; (* one record per simulation point *)
}

let mflops r = r.Model.r_mflops
let l1_misses r = (List.hd r.Model.r_levels).Model.s_misses

(* One figure point, possibly multi-series: the variant of [pipe] chosen
   by [spec] ([None]: the input program) is instantiated at the point's
   concrete parameters through [Pipeline.specialize], recorded once, and
   replayed per (tag, quality) series on [machine], one metrics row per
   series, results in series order.  The symbolic derivation comes from
   the pipeline's codegen cache, so an N sweep costs one Omega derivation;
   specialization (a solver-free rewrite) is charged to the recording like
   the interpretation it accelerates. *)
let simulate_series ?layouts ?init ?(machine = Model.sp2_like) ?spec ~series
    pipe ~n ?(params = []) ~kernel () =
  let params = ("N", n) :: params in
  let init =
    match init with
    | Some f -> f
    | None -> Kernels.Inits.for_kernel kernel ~n
  in
  Metrics.record_replay
    (fun () ->
      Model.record ?layouts (Pipeline.specialize ?spec pipe ~params) ~params
        ~init)
    (List.map
       (fun (tag, quality) ->
         ( Printf.sprintf "%s/N=%d%s" kernel n
             (if tag = "" then "" else "/" ^ tag),
           machine,
           quality ))
       series)

(* Single-series convenience wrapper, the shape most ablations use. *)
let simulate ?layouts ?init ?machine ?spec ~quality ?(tag = "") pipe ~n
    ?params ~kernel () =
  match
    simulate_series ?layouts ?init ?machine ?spec ~series:[ (tag, quality) ]
      pipe ~n ?params ~kernel ()
  with
  | [ r ] -> r
  | _ -> assert false

(* Fan [f] over [items] on the pool; returns the values in input order
   plus the metrics recorded by each task, concatenated in task order. *)
let par_map ~domains items f =
  let pairs =
    Runner.map ~domains (fun x -> Metrics.collect (fun () -> f x)) items
  in
  (List.map fst pairs, List.concat_map snd pairs)

(* Time the figure body and stamp the bookkeeping fields.
   [codegen_seconds] is the up-front symbolic codegen the whole sweep
   shares; [solver] snapshots the figure pipeline's Omega counters after
   the body ran, so the JSON records how many solves the sweep cost (the
   specialization path keeps this flat in the number of sizes). *)
let build ~domains ?(codegen_seconds = 0.0) ?solver ~id ~title ~header
    ~note body =
  let (rows, metrics), seconds = Metrics.timed body in
  { f_id = id;
    f_title = title;
    f_header = header;
    f_rows = rows;
    f_note = note;
    f_domains = domains;
    f_seconds = seconds;
    f_codegen_seconds = codegen_seconds;
    f_solver = Option.map (fun p -> Metrics.solver_of_ctx (Pipeline.solver p)) solver;
    f_metrics = metrics }

(* The one symbolic derivation per spec that every size of a sweep then
   specializes from ([Pipeline.codegen_cached]); its wall-clock is the
   figure's [codegen_seconds]. *)
let derive pipe specs =
  snd
    (Metrics.timed (fun () ->
         List.iter (fun s -> ignore (Pipeline.codegen_cached pipe s)) specs))

(* ------------------------------------------------------------------ *)
(* Code-shape figures                                                  *)
(* ------------------------------------------------------------------ *)

let fig3_code () =
  Ast.program_to_string
    (codegen (K.matmul ()) (Specs.matmul_ca ~size:25))

let fig5_code () =
  Ast.program_to_string
    (Pipeline.codegen ~naive:true (Pipeline.create (K.matmul ())) (Specs.matmul_c ~size:25))

let fig6_code () =
  Ast.program_to_string
    (codegen (K.matmul ()) (Specs.matmul_c ~size:25))

let fig7_code () =
  Ast.program_to_string
    (codegen (K.cholesky_right ()) (Specs.cholesky_write ~size:64))

let fig10_code () =
  Ast.program_to_string
    (codegen (K.matmul ()) (Specs.matmul_two_level ~outer:64 ~inner:8))

let fig14_code () =
  ( Ast.program_to_string (K.adi ()),
    Ast.program_to_string (codegen (K.adi ()) (Specs.adi_fused ())) )

(* ------------------------------------------------------------------ *)
(* Performance figures                                                 *)
(* ------------------------------------------------------------------ *)

(* Figure 11: Cholesky factorization.  Series: the input right-looking
   code; the compiler-generated fully blocked code (untuned inner loops,
   as produced by xlf in the paper); the same code with the inner loops at
   hand-tuned quality ("matmul replaced by DGEMM"); and the LAPACK-style
   hand-blocked left-looking algorithm (here: the other product order) at
   tuned quality. *)
let fig11_cholesky ?(sizes = [ 60; 120; 180; 240 ]) ?(block = 32)
    ?(domains = 1) () =
  let pipe = Pipeline.create (K.cholesky_right ()) in
  let fb_spec = Specs.cholesky_fully_blocked ~size:block in
  let ll_spec = Specs.cholesky_left_looking_blocked ~size:block in
  let codegen_seconds = derive pipe [ fb_spec; ll_spec ] in
  build ~domains ~codegen_seconds ~solver:pipe ~id:"fig11"
    ~title:"Figure 11: Cholesky factorization (MFlops proxy vs N)"
    ~header:[ "input"; "compiler"; "compiler+DGEMM"; "LAPACK-style" ]
    ~note:
      "Expected shape: input flat and lowest; compiler-generated much \
       better; DGEMM-quality inner loops better still; LAPACK-style \
       comparable to compiler+DGEMM."
    (fun () ->
      par_map ~domains sizes (fun n ->
          let sim ?spec series =
            simulate_series ?spec ~series pipe ~n ~kernel:"cholesky_right" ()
          in
          (* series sharing a program variant share one recording; bind in
             series order so metrics are recorded left to right *)
          let input = List.hd (sim [ ("input", Model.untuned) ]) in
          let compiler, dgemm =
            match
              sim ~spec:fb_spec
                [ ("compiler", Model.untuned);
                  ("compiler+DGEMM", Model.tuned) ]
            with
            | [ a; b ] -> (a, b)
            | _ -> assert false
          in
          let lapack =
            List.hd (sim ~spec:ll_spec [ ("LAPACK-style", Model.tuned) ])
          in
          { r_label = string_of_int n;
            r_cols =
              [ ("input", mflops input);
                ("compiler", mflops compiler);
                ("compiler+DGEMM", mflops dgemm);
                ("LAPACK-style", mflops lapack) ] }))

(* Figure 12: QR factorization, blocked by columns only. *)
let fig12_qr ?(sizes = [ 40; 80; 120; 160 ]) ?(width = 16) ?(domains = 1)
    () =
  let pipe = Pipeline.create (K.qr ()) in
  let qr_spec = Specs.qr_columns ~width in
  let codegen_seconds = derive pipe [ qr_spec ] in
  build ~domains ~codegen_seconds ~solver:pipe ~id:"fig12"
    ~title:"Figure 12: QR factorization (MFlops proxy vs N)"
    ~header:[ "input"; "compiler"; "compiler+DGEMM" ]
    ~note:
      "Expected shape: blocking helps somewhat, DGEMM-quality inner loops \
       help substantially.  The paper's LAPACK line uses the \
       domain-specific WY representation, which a compiler cannot derive \
       (Section 8); it is not reproduced."
    (fun () ->
      par_map ~domains sizes (fun n ->
          let sim ?spec series =
            simulate_series ?spec ~series pipe ~n ~kernel:"qr" ()
          in
          let input = List.hd (sim [ ("input", Model.untuned) ]) in
          let compiler, dgemm =
            match
              sim ~spec:qr_spec
                [ ("compiler", Model.untuned);
                  ("compiler+DGEMM", Model.tuned) ]
            with
            | [ a; b ] -> (a, b)
            | _ -> assert false
          in
          { r_label = string_of_int n;
            r_cols =
              [ ("input", mflops input);
                ("compiler", mflops compiler);
                ("compiler+DGEMM", mflops dgemm) ] }))

(* The input/shackled/speedup shape shared by the two Figure 13 kernels. *)
let before_after ~domains ~id ~title ~note ~kernel ~n pipe shackled_spec =
  let codegen_seconds = derive pipe [ shackled_spec ] in
  build ~domains ~codegen_seconds ~solver:pipe ~id ~title
    ~header:[ "cycles"; "mflops"; "l1 misses" ] ~note
    (fun () ->
      let results, metrics =
        par_map ~domains
          [ ("input", None); ("shackled", Some shackled_spec) ]
          (fun (tag, spec) ->
            ( tag,
              simulate ?spec ~quality:Model.untuned ~tag pipe ~n ~kernel () ))
      in
      let stat_row (label, r) =
        { r_label = label;
          r_cols =
            [ ("cycles", r.Model.r_cycles); ("mflops", mflops r);
              ("l1 misses", float_of_int (l1_misses r)) ] }
      in
      let input = List.assoc "input" results
      and shackled = List.assoc "shackled" results in
      let rows =
        List.map stat_row results
        @ [ { r_label = "speedup";
              r_cols =
                [ ("cycles", input.Model.r_cycles /. shackled.Model.r_cycles) ]
            } ]
      in
      (rows, metrics))

(* Figure 13(i): the Gmtry kernel (Gaussian elimination). *)
let fig13_gmtry ?(n = 192) ?(block = 32) ?(domains = 1) () =
  before_after ~domains ~id:"fig13i"
    ~title:
      (Printf.sprintf "Figure 13(i): Gmtry Gaussian elimination (N = %d)" n)
    ~note:"Paper: Gaussian elimination sped up ~3x by 2-D shackling."
    ~kernel:"gmtry" ~n
    (Pipeline.create (K.gmtry ()))
    (Specs.gmtry_write ~size:block)

(* Figure 13(ii): ADI. *)
let fig13_adi ?(n = 1000) ?(domains = 1) () =
  before_after ~domains ~id:"fig13ii"
    ~title:(Printf.sprintf "Figure 13(ii): ADI kernel (N = %d)" n)
    ~note:
      "Paper: transformed ADI runs 8.9x faster at n = 1000 (fusion + \
       interchange via a 1x1 storage-order shackle)."
    ~kernel:"adi" ~n
    (Pipeline.create (K.adi ()))
    (Specs.adi_fused ())

(* Figure 15: banded Cholesky over band storage.  LAPACK-style band code
   carries a fixed per-panel blocking cost (dgbtrf-style), so the compiler
   code wins at small bandwidths and LAPACK wins at large ones. *)
let fig15_band ?(n = 400) ?(bands = [ 8; 16; 32; 64; 128 ]) ?(block = 32)
    ?(domains = 1) () =
  let pipe = Pipeline.create (K.cholesky_banded ()) in
  let band_spec = Specs.cholesky_banded_write ~size:block in
  let codegen_seconds = derive pipe [ band_spec ] in
  let lapack_panel_cycles = 25_000.0 in
  build ~domains ~codegen_seconds ~solver:pipe ~id:"fig15"
    ~title:
      (Printf.sprintf
         "Figure 15: banded Cholesky on band storage, N = %d (MFlops proxy \
          vs bandwidth)"
         n)
    ~header:[ "compiler"; "LAPACK-style" ]
    ~note:
      "Expected shape: compiler-generated code wins at small bandwidths; \
       the LAPACK-style code amortizes its per-panel blocking cost and \
       wins at large bandwidths (crossover in between)."
    (fun () ->
      par_map ~domains bands (fun bw ->
          let layouts = [ ("A", Exec.Store.Banded bw) ] in
          let dense = Kernels.Inits.for_kernel "cholesky_banded" ~n in
          let init name idx =
            if abs (idx.(0) - idx.(1)) > bw then 0.0 else dense name idx
          in
          let compiler, lapack =
            match
              simulate_series ~layouts ~init ~spec:band_spec
                ~series:
                  [ (Printf.sprintf "BW=%d/compiler" bw, Model.untuned);
                    (Printf.sprintf "BW=%d/LAPACK-style" bw, Model.tuned) ]
                pipe ~n
                ~params:[ ("BW", bw) ]
                ~kernel:"cholesky_banded" ()
            with
            | [ a; b ] -> (a, b)
            | _ -> assert false
          in
          let panels = float_of_int ((n + block - 1) / block) in
          let lapack_cycles =
            lapack.Model.r_cycles +. (panels *. lapack_panel_cycles)
          in
          let mf cycles flops =
            if cycles = 0.0 then 0.0
            else
              float_of_int flops /. 1e6
              /. (cycles /. (Model.sp2_like.Model.clock_mhz *. 1e6))
          in
          { r_label = string_of_int bw;
            r_cols =
              [ ("compiler", mflops compiler);
                ("LAPACK-style", mf lapack_cycles lapack.Model.r_flops) ] }))

(* Section 6.1: the six ways to shackle right-looking Cholesky. *)
let tab_legality ?(domains = 1) () =
  let pipe = Pipeline.create (K.cholesky_right ()) in
  let blk size = Shackle.Blocking.blocks_2d ~array:"A" ~size in
  build ~domains ~solver:pipe ~id:"tab-legality"
    ~title:"Section 6.1: legality of the six Cholesky shackles"
    ~header:[ "legal" ]
    ~note:
      "The paper claims exactly two legal choices; the exact Omega-based \
       test finds three (see EXPERIMENTS.md for the analysis)."
    (fun () ->
      par_map ~domains
        (Pipeline.choices pipe ~array:"A")
        (fun choices ->
          let spec = [ Shackle.Spec.factor (blk 16) choices ] in
          let legal = Pipeline.is_legal pipe spec in
          let label =
            String.concat ", "
              (List.map
                 (fun (l, r) ->
                   Printf.sprintf "%s:%s" l
                     (Format.asprintf "%a" Loopir.Fexpr.pp_ref r))
                 choices)
          in
          { r_label = label;
            r_cols = [ ("legal", (if legal then 1.0 else 0.0)) ] }))

(* Ablation: block size sweep for the fully blocked Cholesky. *)
let abl_blocksize ?(n = 192) ?(blocks = [ 8; 16; 32; 64; 96 ]) ?(domains = 1)
    () =
  let pipe = Pipeline.create (K.cholesky_right ()) in
  build ~domains ~solver:pipe ~id:"abl-blocksize"
    ~title:(Printf.sprintf "Ablation: block size sweep, Cholesky N = %d" n)
    ~header:[ "mflops"; "l1 misses" ]
    ~note:
      "Misses are minimized when three blocks fit in cache; too small \
       wastes bandwidth on block boundaries, too large thrashes."
    (fun () ->
      par_map ~domains blocks (fun b ->
          let r =
            simulate
              ~spec:(Specs.cholesky_fully_blocked ~size:b)
              ~quality:Model.untuned
              ~tag:(Printf.sprintf "block=%d" b)
              pipe ~n ~kernel:"cholesky_right" ()
          in
          { r_label = string_of_int b;
            r_cols =
              [ ("mflops", mflops r);
                ("l1 misses", float_of_int (l1_misses r)) ] }))

(* Ablation: shackling vs control-centric tiling on Cholesky (Section 3). *)
let abl_tiling ?(n = 144) ?(block = 24) ?(domains = 1) () =
  let pipe = Pipeline.create (K.cholesky_right ()) in
  let sh_spec = Specs.cholesky_fully_blocked ~size:block in
  let codegen_seconds = derive pipe [ sh_spec ] in
  (* the hand-tiled program has no shackle spec: its own pipeline's input *)
  let tiled_pipe = Pipeline.create (Tiling.cholesky_update_tiled ~size:block) in
  build ~domains ~codegen_seconds ~solver:pipe ~id:"abl-tiling"
    ~title:
      (Printf.sprintf
         "Ablation: control-centric tiling vs data shackling, Cholesky N = %d"
         n)
    ~header:[ "mflops"; "l1 misses" ]
    ~note:
      "Naive code sinking lets tiling block only the update loops \
       (Section 3); the data-centric product blocks the whole \
       factorization."
    (fun () ->
      par_map ~domains
        [ ("input", pipe, None);
          ("update loops tiled", tiled_pipe, None);
          ("data shackled", pipe, Some sh_spec) ]
        (fun (label, pipe, spec) ->
          let r =
            simulate ?spec ~quality:Model.untuned ~tag:label pipe ~n
              ~kernel:"cholesky_right" ()
          in
          { r_label = label;
            r_cols =
              [ ("mflops", mflops r);
                ("l1 misses", float_of_int (l1_misses r)) ] }))

(* Ablation: one-level vs two-level blocking on the deeper machine
   (Section 6.3). *)
let abl_multilevel ?(n = 250) ?(domains = 1) () =
  let pipe = Pipeline.create (K.matmul ()) in
  let one_spec = Specs.matmul_ca ~size:96 in
  let two_spec = Specs.matmul_two_level ~outer:96 ~inner:16 in
  let codegen_seconds = derive pipe [ one_spec; two_spec ] in
  build ~domains ~codegen_seconds ~solver:pipe ~id:"abl-multilevel"
    ~title:
      (Printf.sprintf
         "Section 6.3: multi-level blocking on a two-level hierarchy, \
          matmul N = %d"
         n)
    ~header:[ "mflops"; "L1 misses"; "L2 misses" ]
    ~note:
      "The outer factor blocks for L2, the inner factor for L1; two-level \
       blocking should beat both the unblocked code and L2-only blocking."
    (fun () ->
      par_map ~domains
        [ ("unblocked", None);
          ("one-level 96", Some one_spec);
          ("two-level 96/16", Some two_spec) ]
        (fun (label, spec) ->
          let r =
            simulate ~machine:Model.two_level ?spec ~quality:Model.untuned
              ~tag:label pipe ~n ~kernel:"matmul" ()
          in
          let l1 = List.nth r.Model.r_levels 0
          and l2 = List.nth r.Model.r_levels 1 in
          { r_label = label;
            r_cols =
              [ ("mflops", mflops r);
                ("L1 misses", float_of_int l1.Model.s_misses);
                ("L2 misses", float_of_int l2.Model.s_misses) ] }))

(* Section 8: the autotuner.  One row per paper kernel: the candidate the
   search selects, its simulated performance, the speedup over the input
   code, and how hard the memoized legality engine worked.  Problem sizes
   are chosen so working sets exceed the 64 KB cache and the candidates
   separate; rows hold only simulated/counted quantities, so the figure is
   byte-identical across pool widths. *)
let tune_figure ?(quick = false) ?(domains = 1) () =
  let points =
    if quick then
      [ ("matmul", K.matmul (), 48, [ 16 ]);
        ("cholesky_right", K.cholesky_right (), 64, [ 16 ]) ]
    else
      [ ("matmul", K.matmul (), 64, [ 16 ]);
        ("cholesky_right", K.cholesky_right (), 128, [ 32 ]) ]
  in
  build ~domains ~id:"tune"
    ~title:"Section 8: autotuned shackles (best candidate per kernel)"
    ~header:[ "cycles"; "mflops"; "speedup"; "legal"; "cache hits"; "headroom" ]
    ~note:
      "Best-of over the (reference choice x block size x product depth) \
       lattice, pruned by Theorem 2, checked by the memoized Theorem 1 \
       engine, evaluated by record/replay simulation.  Headroom is the \
       winner's simulated L1 misses over its analytic communication lower \
       bound (>= 1 by soundness; 0 when no bound is available)."
    (fun () ->
      let rows_and_metrics =
        List.map
          (fun (kernel, prog, n, sizes) ->
            let options =
              { Tune.default_options with sizes; domains }
            in
            let rp = Tune.tune ~options ~kernel ~params:[ ("N", n) ] prog in
            let row =
              match Tune.best rp with
              | None -> { r_label = kernel; r_cols = [] }
              | Some s ->
                (* simulated-misses/bound ratio at the first bounded level
                   of the head machine: how far the winner still sits
                   above what any execution order could achieve *)
                let headroom =
                  match s.Tune.s_bounds with
                  | (mname, (_, b) :: _) :: _ when b > 0 -> (
                    match
                      List.find_map
                        (fun (m, _, r) ->
                          if String.equal m mname then
                            List.nth_opt r.Model.r_levels 0
                          else None)
                        s.Tune.s_results
                    with
                    | Some st ->
                      float_of_int st.Model.s_misses /. float_of_int b
                    | None -> 0.0)
                  | _ -> 0.0
                in
                { r_label = Printf.sprintf "%s N=%d" kernel n;
                  r_cols =
                    [ ("cycles", s.Tune.s_cycles);
                      ("mflops", s.Tune.s_mflops);
                      ("speedup", rp.Tune.rp_input_cycles /. s.Tune.s_cycles);
                      ("legal", float_of_int rp.Tune.rp_counts.Tune.n_legal);
                      ("cache hits",
                        float_of_int
                          rp.Tune.rp_solver.Metrics.so_cache_hits);
                      ("headroom", headroom) ] }
            in
            (row, rp.Tune.rp_metrics))
          points
      in
      (List.map fst rows_and_metrics, List.concat_map snd rows_and_metrics))

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

(* Every perf figure by id, with the --quick problem sizes used by the
   bench harness and CI.  Order is presentation order. *)
let runners : (string * (quick:bool -> domains:int -> figure)) list =
  [ ( "fig11",
      fun ~quick ~domains ->
        if quick then fig11_cholesky ~sizes:[ 48; 96 ] ~domains ()
        else fig11_cholesky ~domains () );
    ( "fig12",
      fun ~quick ~domains ->
        if quick then fig12_qr ~sizes:[ 40; 80 ] ~domains ()
        else fig12_qr ~domains () );
    ( "fig13i",
      fun ~quick ~domains ->
        fig13_gmtry ~n:(if quick then 96 else 192) ~domains () );
    ( "fig13ii",
      fun ~quick ~domains ->
        fig13_adi ~n:(if quick then 300 else 1000) ~domains () );
    ( "fig15",
      fun ~quick ~domains ->
        if quick then fig15_band ~n:200 ~bands:[ 8; 32 ] ~domains ()
        else fig15_band ~domains () );
    ("tab-legality", fun ~quick:_ ~domains -> tab_legality ~domains ());
    ( "abl-blocksize",
      fun ~quick ~domains ->
        abl_blocksize ~n:(if quick then 96 else 192) ~domains () );
    ( "abl-tiling",
      fun ~quick ~domains ->
        abl_tiling ~n:(if quick then 96 else 144) ~domains () );
    ( "abl-multilevel",
      fun ~quick ~domains ->
        abl_multilevel ~n:(if quick then 120 else 250) ~domains () );
    ("tune", fun ~quick ~domains -> tune_figure ~quick ~domains ()) ]

let ids = List.map fst runners

let run_by_id id ~quick ~domains =
  Option.map (fun f -> f ~quick ~domains) (List.assoc_opt id runners)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_figure fmt f =
  Format.fprintf fmt "@.== %s ==@." f.f_title;
  let w = 22 in
  Format.fprintf fmt "%-28s" "";
  List.iter (fun h -> Format.fprintf fmt "%*s" w h) f.f_header;
  Format.fprintf fmt "@.";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-28s" r.r_label;
      List.iter
        (fun h ->
          match List.assoc_opt h r.r_cols with
          | Some v ->
            if Float.is_integer v && Float.abs v < 1e7 then
              Format.fprintf fmt "%*.0f" w v
            else Format.fprintf fmt "%*.2f" w v
          | None -> Format.fprintf fmt "%*s" w "-")
        f.f_header;
      Format.fprintf fmt "@.")
    f.f_rows;
  Format.fprintf fmt "note: %s@." f.f_note

(* The machine-readable rendering.  Rows hold only simulated quantities,
   so they are byte-identical across runs and pool widths; wall-clock
   lives in "seconds" and in the per-point metrics. *)
let row_to_json r =
  Json.Obj
    [ ("label", Json.Str r.r_label);
      ("cols", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.r_cols))
    ]

let figure_to_json f =
  Json.Obj
    ([ ("id", Json.Str f.f_id);
       ("title", Json.Str f.f_title);
       ("header", Json.List (List.map (fun h -> Json.Str h) f.f_header));
       ("rows", Json.List (List.map row_to_json f.f_rows));
       ("domains", Json.Int f.f_domains);
       ("seconds", Json.Float f.f_seconds);
       ("codegen_seconds", Json.Float f.f_codegen_seconds) ]
    @ (match f.f_solver with
      | None -> []
      | Some s ->
        (* what the whole sweep cost in Omega work; with specialization on,
           invariant in the number of sweep sizes *)
        [ ("solves_per_sweep", Json.Int (Metrics.solver_solves s));
          ("solver", Metrics.solver_to_json s) ])
    @ [ ("metrics", Json.List (List.map Metrics.sim_to_json f.f_metrics));
        ("note", Json.Str f.f_note) ])
