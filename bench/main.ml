(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 7) plus the code-shape figures from the body of the
   paper, times the compiler passes and one representative simulation
   point per figure with Bechamel, and optionally writes the whole run as
   a machine-readable BENCH_*.json trajectory for CI to gate on.

   Usage:  dune exec bench/main.exe                       (everything)
           dune exec bench/main.exe -- --quick            (smaller sizes)
           dune exec bench/main.exe -- --quick --no-bench --domains 4 \
               --json BENCH_quick.json                    (CI smoke run)
           dune exec bench/main.exe -- --figure fig11 --figure fig15
           dune exec bench/main.exe -- --check-json BENCH_quick.json
           dune exec bench/main.exe -- --list-figures *)

module F = Experiments.Figures
module K = Kernels.Builders
module Model = Machine.Model
module Json = Observe.Json
module Metrics = Observe.Metrics

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

type opts = {
  quick : bool;
  json : string option;       (* write the trajectory here *)
  figures : string list;      (* selected figure ids, [] = all *)
  domains : int;              (* work-pool width, 1 = sequential *)
  par_exec : bool;            (* block-scheduler execution per point *)
  bechamel : bool;            (* run the micro-benchmarks *)
  check_json : string option; (* validate a trajectory file and exit *)
  diff_json : (string * string) option; (* compare two trajectories and exit *)
  list_figures : bool;
}

let die msg =
  prerr_endline ("bench: " ^ msg ^ " (try --help)");
  exit 2

(* Flags come from the shared {!Cli} module: --quick, --json, --domains,
   --timeout-ms and --fuel spell the same as in shacklec and fuzz.  The
   budget pair is applied process-wide via [Omega.set_default_budget], so
   every solver context the figures build inherits it. *)
let parse_args argv =
  let quick = ref false and json = ref None and figures = ref [] in
  let domains = ref 1 and no_bench = ref false and par_exec = ref false in
  let check_json = ref None and diff_json = ref None in
  let list_figures = ref false in
  let timeout_ms = ref None and fuel = ref None in
  let specs =
    [ Cli.quick quick; Cli.json json;
      Cli.timeout_ms timeout_ms; Cli.fuel fuel;
      Cli.string_list "--figure" ~docv:"ID"
        ~doc:"run only figure ID (repeatable; see --list-figures)" figures;
      Cli.domains domains;
      Cli.par_exec par_exec;
      Cli.flag "--no-bench" ~doc:"skip the Bechamel micro-benchmarks" no_bench;
      Cli.string_opt "--check-json" ~docv:"PATH"
        ~doc:"validate a BENCH_*.json file and exit" check_json;
      Cli.string_pair_opt "--diff-json" ~docv:"A B"
        ~doc:"compare the simulated rows/metrics of two BENCH files and exit"
        diff_json;
      Cli.flag "--list-figures" ~doc:"print the known figure ids and exit"
        list_figures ]
  in
  (match Cli.parse ~prog:"bench" ~specs (List.tl (Array.to_list argv)) with
  | Ok () -> ()
  | Error msg -> die msg);
  Polyhedra.Omega.set_default_budget ?fuel:!fuel ?timeout_ms:!timeout_ms ();
  { quick = !quick;
    json = !json;
    figures = !figures;
    domains = !domains;
    par_exec = !par_exec;
    bechamel = not !no_bench;
    check_json = !check_json;
    diff_json = !diff_json;
    list_figures = !list_figures }

(* ------------------------------------------------------------------ *)
(* Schema validation for --check-json                                  *)
(* ------------------------------------------------------------------ *)

let load_json path =
  if not (Sys.file_exists path) then begin
    Printf.eprintf "bench: %s: no such file\n" path;
    exit 1
  end;
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let raw = really_input_string ic len in
  close_in ic;
  match Json.of_string raw with
  | Error msg ->
    Printf.eprintf "bench: %s: %s\n" path msg;
    exit 1
  | Ok j -> j

(* CI calls this on the freshly written trajectory, so a missing file,
   unparseable JSON, or a schema drift all fail the workflow loudly.
   Validation lives in the shared {!Report} registry; this wrapper pins
   the family so only bench trajectories pass. *)
let check_json path =
  let j = load_json path in
  let fail msg =
    Printf.eprintf "bench: %s: schema error: %s\n" path msg;
    exit 1
  in
  (match Report.check j with
   | Ok tag when String.equal tag Report.bench -> ()
   | Ok tag -> fail (Printf.sprintf "schema %S, expected %S" tag Report.bench)
   | Error e -> fail e);
  Printf.printf "%s: OK\n" path;
  exit 0

(* ------------------------------------------------------------------ *)
(* Replay-equivalence diff for --diff-json                             *)
(* ------------------------------------------------------------------ *)

(* Compare the simulated content of two trajectories: figure rows (all
   columns) and every simulated metric quantity (flops, instances,
   accesses, per-level stats, cycles, mflops).  Wall-clock fields
   ("seconds", trace accounting), dynamic scheduler counters and run
   configuration ("domains") are ignored, so runs at any --domains, with
   or without --par-exec, must diff clean against the committed golden
   trajectory. *)
let diff_json path_a path_b =
  let figures path =
    match Json.member "figures" (load_json path) with
    | Some (Json.List figs) ->
      List.map
        (fun fig ->
          match Json.member "id" fig with
          | Some (Json.Str id) -> (id, fig)
          | _ ->
            Printf.eprintf "bench: %s: figure lacks a string id\n" path;
            exit 1)
        figs
    | _ ->
      Printf.eprintf "bench: %s: no figures list\n" path;
      exit 1
  in
  let fa = figures path_a and fb = figures path_b in
  let mismatch = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> mismatch := s :: !mismatch) fmt in
  if List.map fst fa <> List.map fst fb then
    complain "figure ids differ: [%s] vs [%s]"
      (String.concat ", " (List.map fst fa))
      (String.concat ", " (List.map fst fb))
  else
    List.iter2
      (fun (id, ja) (_, jb) ->
        let rows j =
          match Json.member "rows" j with
          | Some r -> Json.to_string r
          | None -> "<missing>"
        in
        if rows ja <> rows jb then complain "figure %s: rows differ" id;
        let sims j =
          match Json.member "metrics" j with
          | Some (Json.List ms) ->
            List.map
              (fun m ->
                match Metrics.sim_of_json m with
                | Ok s ->
                  (* normalize everything that may legitimately differ *)
                  Metrics.sim_to_json
                    { s with Metrics.sim_seconds = 0.0; sim_trace = None; sim_sched = None }
                  |> Json.to_string
                | Error e ->
                  Printf.eprintf "bench: figure %s: bad metrics: %s\n" id e;
                  exit 1)
              ms
          | _ -> []
        in
        let sa = sims ja and sb = sims jb in
        if List.length sa <> List.length sb then
          complain "figure %s: %d vs %d metrics rows" id (List.length sa)
            (List.length sb)
        else
          List.iteri
            (fun i (a, b) ->
              if a <> b then
                complain "figure %s: metrics row %d differs:\n  %s\n  %s" id i
                  a b)
            (List.combine sa sb))
      fa fb;
  match List.rev !mismatch with
  | [] ->
    Printf.printf "%s and %s: simulated rows and metrics identical\n" path_a
      path_b;
    exit 0
  | ms ->
    List.iter (fun m -> Printf.eprintf "bench: diff: %s\n" m) ms;
    exit 1

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let section title = Printf.printf "\n================ %s ================\n" title

let show_code title code =
  section title;
  print_string code

let show_figure fig = Format.printf "%a" F.pp_figure fig

let code_figures () =
  show_code "Figure 3: blocked matmul (C x A product, 25x25)" (F.fig3_code ());
  show_code "Figure 5: naive C-shackled matmul" (F.fig5_code ());
  show_code "Figure 6: simplified C-shackled matmul" (F.fig6_code ());
  show_code "Figure 7: shackled right-looking Cholesky (64x64)" (F.fig7_code ());
  show_code "Figure 10: two-level blocked matmul (64 then 8)" (F.fig10_code ());
  let before, after = F.fig14_code () in
  show_code "Figure 14(i): ADI input code" before;
  show_code "Figure 14(ii): ADI after the 1x1 storage-order shackle" after

let perf_figures { quick; figures; domains; par_exec; _ } =
  (* with --par-exec the --domains value doubles as the block-scheduler
     worker count; simulated quantities are identical either way *)
  let par = if par_exec then domains else 0 in
  let wanted =
    match figures with
    | [] -> F.ids
    | ids ->
      List.iter
        (fun id ->
          if not (List.mem id F.ids) then
            die
              (Printf.sprintf "unknown figure %s (known: %s)" id
                 (String.concat ", " F.ids)))
        ids;
      ids
  in
  section
    (Printf.sprintf
       "Performance figures (simulated SP-2 stand-in; %d domain%s%s; see \
        DESIGN.md)"
       domains
       (if domains = 1 then "" else "s")
       (if par_exec then "; parallel block execution" else ""));
  List.map
    (fun id ->
      let fig = Option.get (F.run_by_id id ~quick ~domains ~par ()) in
      show_figure fig;
      fig)
    wanted

(* ------------------------------------------------------------------ *)
(* The JSON trajectory                                                 *)
(* ------------------------------------------------------------------ *)

let write_json path ~opts ~figures ~total_seconds =
  let j =
    Json.Obj
      [ ("schema_version", Json.Int 1);
        ("generator", Json.Str "bench/main.exe");
        ("quick", Json.Bool opts.quick);
        ("domains", Json.Int opts.domains);
        ("par_exec", Json.Bool opts.par_exec);
        ("total_seconds", Json.Float total_seconds);
        ("figures", Json.List (List.map F.figure_to_json figures)) ]
  in
  (* every envelope goes through the registry before it hits disk, so a
     writer drifting from the schema fails the run that produced it, not
     the later --check-json of a stale artifact *)
  (match Report.check j with
  | Ok _ -> ()
  | Error e ->
    Printf.eprintf "bench: refusing to write %s: schema error: %s\n" path e;
    exit 1);
  let oc = open_out_bin path in
  output_string oc (Json.to_string ~pretty:true j);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s (%d figures, %.2fs total)\n" path
    (List.length figures) total_seconds

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure           *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let stage name fn = Test.make ~name (Staged.stage fn)

let bench_tests () =
  let sim ?(machine = Model.sp2_like) prog ~n ~kernel ~quality ?(params = []) () =
    ignore
      (Model.simulate ~machine ~quality prog
         ~params:(("N", n) :: params)
         ~init:(Kernels.Inits.for_kernel kernel ~n))
  in
  (* one pipeline (and thus one solver context) per source program; the
     codegen stages therefore measure steady-state generation with a warm
     legality memo table, which is how the autotuner runs it *)
  let matmul_pipe = Pipeline.create (K.matmul ()) in
  let cholesky = K.cholesky_right () in
  let cholesky_pipe = Pipeline.create cholesky in
  let adi_pipe = Pipeline.create (K.adi ()) in
  let cholesky_blocked =
    Pipeline.codegen cholesky_pipe
      (Experiments.Specs.cholesky_fully_blocked ~size:16)
  in
  let qr_blocked =
    Pipeline.codegen (Pipeline.create (K.qr ())) (Experiments.Specs.qr_columns ~width:8)
  in
  let gmtry_blocked =
    Pipeline.codegen (Pipeline.create (K.gmtry ()))
      (Experiments.Specs.gmtry_write ~size:16)
  in
  let adi_fused = Pipeline.codegen adi_pipe (Experiments.Specs.adi_fused ()) in
  let banded_blocked =
    Pipeline.codegen
      (Pipeline.create (K.cholesky_banded ()))
      (Experiments.Specs.cholesky_banded_write ~size:16)
  in
  [ stage "fig3_codegen" (fun () ->
        Pipeline.codegen matmul_pipe (Experiments.Specs.matmul_ca ~size:25));
    stage "fig6_codegen" (fun () ->
        Pipeline.codegen matmul_pipe (Experiments.Specs.matmul_c ~size:25));
    stage "fig7_codegen" (fun () ->
        Pipeline.codegen cholesky_pipe
          (Experiments.Specs.cholesky_write ~size:64));
    stage "fig10_codegen" (fun () ->
        Pipeline.codegen matmul_pipe
          (Experiments.Specs.matmul_two_level ~outer:64 ~inner:8));
    stage "fig14_codegen" (fun () ->
        Pipeline.codegen adi_pipe (Experiments.Specs.adi_fused ()));
    stage "fig11_sim_point" (fun () ->
        sim cholesky_blocked ~n:48 ~kernel:"cholesky_right"
          ~quality:Model.untuned ());
    stage "fig12_sim_point" (fun () ->
        sim qr_blocked ~n:32 ~kernel:"qr" ~quality:Model.untuned ());
    stage "fig13i_sim_point" (fun () ->
        sim gmtry_blocked ~n:48 ~kernel:"gmtry" ~quality:Model.untuned ());
    stage "fig13ii_sim_point" (fun () ->
        sim adi_fused ~n:100 ~kernel:"adi" ~quality:Model.untuned ());
    stage "fig15_sim_point" (fun () ->
        sim banded_blocked ~n:100 ~kernel:"cholesky_banded"
          ~quality:Model.untuned ~params:[ ("BW", 8) ] ());
    stage "tab_legality_check" (fun () ->
        Shackle.Legality.is_legal cholesky
          (Experiments.Specs.cholesky_write ~size:16));
    stage "abl_tiling_point" (fun () ->
        sim (Tiling.cholesky_update_tiled ~size:16) ~n:48
          ~kernel:"cholesky_right" ~quality:Model.untuned ());
    stage "abl_multilevel_point" (fun () ->
        sim ~machine:Model.two_level
          (Pipeline.codegen matmul_pipe
             (Experiments.Specs.matmul_two_level ~outer:32 ~inner:8))
          ~n:64 ~kernel:"matmul" ~quality:Model.untuned ()) ]

let run_bechamel ~quick =
  section "Bechamel micro-benchmarks (wall-clock per run)";
  let tests = Test.make_grouped ~name:"paper" ~fmt:"%s %s" (bench_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500
      ~quota:(Time.second (if quick then 0.25 else 0.5))
      ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  (* print name -> estimated ns/run *)
  Hashtbl.iter
    (fun measure tbl ->
      if String.equal measure (Measure.label Instance.monotonic_clock) then
        Hashtbl.iter
          (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> Printf.printf "%-40s %12.0f ns/run\n" name est
            | _ -> Printf.printf "%-40s %12s\n" name "n/a")
          tbl)
    results

(* ------------------------------------------------------------------ *)

let () =
  let opts = parse_args Sys.argv in
  (match opts.check_json with Some path -> check_json path | None -> ());
  (match opts.diff_json with
   | Some (a, b) -> diff_json a b
   | None -> ());
  if opts.list_figures then begin
    List.iter print_endline F.ids;
    exit 0
  end;
  let t0 = Metrics.now_s () in
  if opts.figures = [] then code_figures ();
  let figures = perf_figures opts in
  let total_seconds = Metrics.now_s () -. t0 in
  if opts.bechamel then run_bechamel ~quick:opts.quick;
  (match opts.json with
   | Some path -> write_json path ~opts ~figures ~total_seconds
   | None -> ());
  print_newline ()
