(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 7) plus the code-shape figures from the body of the
   paper, and optionally writes the whole run as a machine-readable
   BENCH_*.json trajectory for CI to gate on.  Timing is perfbench's job
   (perfbench/run.py): its compile and simulate workloads time the same
   codegen and simulation points, layer by layer.

   Usage:  dune exec bench/main.exe                       (everything)
           dune exec bench/main.exe -- --quick            (smaller sizes)
           dune exec bench/main.exe -- --quick --domains 4 \
               --json BENCH_quick.json                    (CI smoke run)
           dune exec bench/main.exe -- --figure fig11 --figure fig15
           dune exec bench/main.exe -- --check-json BENCH_quick.json
           dune exec bench/main.exe -- --list-figures *)

module F = Experiments.Figures
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
  check_json : string option; (* validate a trajectory file and exit *)
  diff_json : (string * string) option; (* compare two trajectories and exit *)
  list_figures : bool;
}

let die msg =
  prerr_endline ("bench: " ^ msg ^ " (try --help)");
  exit 2

(* Flags come from the shared {!Cli} module: --quick, --json and
   --domains spell the same as in shacklec and fuzz.  There is no solver
   budget: every figure must decide every query exactly, or its rows would
   drift from the committed golden. *)
let parse_args argv =
  let quick = ref false and json = ref None and figures = ref [] in
  let domains = ref 1 in
  let check_json = ref None and diff_json = ref None in
  let list_figures = ref false in
  let specs =
    [ Cli.quick quick; Cli.json json;
      Cli.string_list "--figure" ~docv:"ID"
        ~doc:"run only figure ID (repeatable; see --list-figures)" figures;
      Cli.domains domains;
      Cli.string_opt "--check-json" ~docv:"PATH"
        ~doc:"validate a BENCH_*.json file and exit" check_json;
      Cli.string_pair_opt "--diff-json" ~docv:"A B"
        ~doc:
          "compare the simulated rows/metrics of two BENCH files (and their \
           solver counters when both ran at one domain) and exit"
        diff_json;
      Cli.flag "--list-figures" ~doc:"print the known figure ids and exit"
        list_figures ]
  in
  (match Cli.parse ~prog:"bench" ~specs (List.tl (Array.to_list argv)) with
  | Ok () -> ()
  | Error msg -> die msg);
  { quick = !quick;
    json = !json;
    figures = !figures;
    domains = !domains;
    check_json = !check_json;
    diff_json = !diff_json;
    list_figures = !list_figures }

(* ------------------------------------------------------------------ *)
(* Schema validation for --check-json                                  *)
(* ------------------------------------------------------------------ *)

(* Every trajectory is read through the shared {!Report} registry, pinned
   to the bench family.  CI calls --check-json on the freshly written
   trajectory, so a missing file, unparseable JSON, another family or a
   schema drift all fail the workflow loudly (exit 1). *)
let read_bench path =
  match Report.read path with
  | Ok (tag, j) when String.equal tag Report.bench -> j
  | Ok (tag, _) ->
    Printf.eprintf "bench: %s: schema %S, expected %S\n" path tag Report.bench;
    exit 1
  | Error e ->
    Printf.eprintf "bench: %s\n" e;
    exit 1

let check_json path =
  ignore (read_bench path);
  Printf.printf "%s: OK\n" path;
  exit 0

(* ------------------------------------------------------------------ *)
(* Replay-equivalence diff for --diff-json                             *)
(* ------------------------------------------------------------------ *)

(* Compare the simulated content of two trajectories: figure rows (all
   columns) and every simulated metric quantity (flops, instances,
   accesses, per-level stats, cycles, mflops).  Wall-clock fields
   ("seconds", trace accounting) and run configuration ("domains") are
   ignored, so a run at any --domains must diff clean against the
   committed golden trajectory.  When both files were written at one
   domain, each figure's solver counters ("solver" and
   "solves_per_sweep") must match too: concurrent domains may duplicate a
   memo miss, so only a sequential run pins them.  Both files passed the
   registry, so every figure has an id, rows and well-formed metrics. *)
let diff_json path_a path_b =
  let ja = read_bench path_a and jb = read_bench path_b in
  let figures j =
    Result.get_ok (Json.list_field "figures" j)
    |> List.map (fun fig -> (Result.get_ok (Json.str_field "id" fig), fig))
  in
  let fa = figures ja and fb = figures jb in
  let domains j = Json.int_opt "domains" j in
  let solvers = domains ja = Some 1 && domains jb = Some 1 in
  let mismatch = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> mismatch := s :: !mismatch) fmt in
  if List.map fst fa <> List.map fst fb then
    complain "figure ids differ: [%s] vs [%s]"
      (String.concat ", " (List.map fst fa))
      (String.concat ", " (List.map fst fb))
  else
    List.iter2
      (fun (id, ja) (_, jb) ->
        let field k j = Option.map Json.to_string (Json.member k j) in
        if field "rows" ja <> field "rows" jb then
          complain "figure %s: rows differ" id;
        if solvers then
          List.iter
            (fun k ->
              if field k ja <> field k jb then
                complain "figure %s: %s differs:\n  %s\n  %s" id k
                  (Option.value ~default:"absent" (field k ja))
                  (Option.value ~default:"absent" (field k jb)))
            [ "solves_per_sweep"; "solver" ];
        let sims j =
          List.map
            (fun m ->
              let s = Result.get_ok (Metrics.sim_of_json m) in
              (* normalize everything that may legitimately differ *)
              Metrics.sim_to_json
                { s with Metrics.sim_seconds = 0.0; sim_trace = None }
              |> Json.to_string)
            (Result.get_ok (Json.list_field "metrics" j))
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
  let compared =
    if solvers then
      "simulated rows, metrics and solver counters (both at one domain)"
    else
      let show j =
        Option.fold ~none:"unknown" ~some:string_of_int (domains j)
      in
      Printf.sprintf
        "simulated rows and metrics (solver counters not compared: domains %s \
         and %s)"
        (show ja) (show jb)
  in
  match List.rev !mismatch with
  | [] ->
    Printf.printf "%s and %s: %s identical\n" path_a path_b compared;
    exit 0
  | ms ->
    List.iter (fun m -> Printf.eprintf "bench: diff: %s\n" m) ms;
    Printf.eprintf "bench: compared %s\n" compared;
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

let perf_figures { quick; figures; domains; _ } =
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
       "Performance figures (simulated SP-2 stand-in; %d domain%s; see \
        DESIGN.md)"
       domains
       (if domains = 1 then "" else "s"));
  List.map
    (fun id ->
      let fig = Option.get (F.run_by_id id ~quick ~domains) in
      show_figure fig;
      fig)
    wanted

(* ------------------------------------------------------------------ *)
(* The JSON trajectory                                                 *)
(* ------------------------------------------------------------------ *)

let write_json path ~opts ~figures ~total_seconds =
  let j =
    Json.Obj
      [ ("schema", Json.Str Report.bench);
        ("generator", Json.Str "bench/main.exe");
        ("quick", Json.Bool opts.quick);
        ("domains", Json.Int opts.domains);
        ("total_seconds", Json.Float total_seconds);
        ("figures", Json.List (List.map F.figure_to_json figures)) ]
  in
  (* the registry refuses an envelope that drifted from the schema, so a
     writer's drift fails the run that produced it, not the later
     --check-json of a stale artifact *)
  (match Report.write path j with
  | Ok () -> ()
  | Error e ->
    Printf.eprintf "bench: %s\n" e;
    exit 1);
  Printf.printf "\nwrote %s (%d figures, %.2fs total)\n" path
    (List.length figures) total_seconds

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
  (match opts.json with
   | Some path -> write_json path ~opts ~figures ~total_seconds
   | None -> ());
  print_newline ()
