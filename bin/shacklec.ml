(* shacklec: a command-line driver for the data-shackling compiler.

     shacklec list
     shacklec show cholesky_right
     shacklec block matmul --spec c --size 25        (print blocked code)
     shacklec block matmul --spec c --size 25 --naive
     shacklec legal cholesky_right --spec write --size 64
     shacklec choices cholesky_right                 (all shackles + verdicts)
     shacklec verify matmul --spec ca --size 16 --n 40
     shacklec sim cholesky_right --spec full --size 32 --n 120 [--tuned]
     shacklec tune matmul --size 16 --n 64 --json TUNE.json
     shacklec tune --check-json TUNE.json

   Specs per kernel (see Experiments.Specs):
     matmul:           c | ca | two-level
     cholesky_right:   write | read | full | left
     cholesky_banded:  write
     qr:               columns
     gmtry:            write
     adi:              fused                                               *)

module Ast = Loopir.Ast
module K = Kernels.Builders
module Specs = Experiments.Specs
module Legality = Shackle.Legality
module Model = Machine.Model
module Json = Observe.Json
module Omega = Polyhedra.Omega

(* ------------------------------------------------------------------ *)
(* Shared argument pieces                                              *)
(* ------------------------------------------------------------------ *)

let kernel_positional cell =
  ( "KERNEL",
    fun v ->
      match !cell with
      | Some _ -> Error (Printf.sprintf "unexpected extra argument %S" v)
      | None -> begin
        match List.assoc_opt v (K.all ()) with
        | Some p ->
          cell := Some (v, p);
          Ok ()
        | None ->
          Error
            (Printf.sprintf "unknown kernel %s (try: %s)" v
               (String.concat ", " (List.map fst (K.all ()))))
      end )

let spec_flag cell =
  Cli.string_opt "--spec" ~docv:"SPEC"
    ~doc:"which shackle to use (kernel-specific; see the file header)" cell

let size_flag cell = Cli.int "--size" ~docv:"B" ~doc:"block size (default 32)" cell
let n_flag cell = Cli.int "--n" ~docv:"N" ~doc:"problem size (default 64)" cell
let bw_flag cell = Cli.int "--bw" ~docv:"BW" ~doc:"bandwidth (banded kernels)" cell

let machine_flag cell =
  Cli.choice_list "--machine" ~docv:"MACHINE" Model.machines
    ~doc:
      "machine model to simulate (sp2-like, two-level or small-cache; repeatable) — every \
       (machine, quality) variant replays one recorded trace"
    cell

let quality_flag cell =
  Cli.choice_list "--quality" ~docv:"QUALITY" Model.qualities
    ~doc:"inner-loop code quality (untuned or tuned; repeatable)" cell

let spec_of (name, _p) spec ~size =
  match Specs.lookup ~kernel:name ~spec ~size with
  | Some s -> s
  | None -> failwith (Printf.sprintf "no spec %s for kernel %s" spec name)

let params_of (name, _) ~n ~bw =
  if String.equal name "cholesky_banded" then [ ("N", n); ("BW", bw) ]
  else [ ("N", n) ]

let init_of (name, _) ~n ~bw =
  let base = Kernels.Inits.for_kernel name ~n in
  if String.equal name "cholesky_banded" then fun a idx ->
    if abs (idx.(0) - idx.(1)) > bw then 0.0 else base a idx
  else base

(* --connect routes the request to a running shackled daemon instead of
   computing locally; the daemon resolves the same kernel/spec names
   through the same Specs.lookup table. *)
let remote_rpc ~prog addr req k =
  let c = Server.Client.connect addr in
  Fun.protect
    ~finally:(fun () -> Server.Client.close c)
    (fun () ->
      match Server.Client.rpc c req with
      | Ok reply -> k reply
      | Error e ->
        Printf.eprintf "%s: %s: %s\n" prog e.Server.Proto.e_code e.e_message;
        1)

let with_kernel ~prog cell k =
  match !cell with
  | Some kernel -> k kernel
  | None ->
    Printf.eprintf "%s: expects a KERNEL argument (try --help)\n" prog;
    2

let read_file file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file file text =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* ------------------------------------------------------------------ *)
(* Subcommands                                                         *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  Cli.cmd "list" ~doc:"list the available kernels" (fun args ->
      Cli.run ~prog:"shacklec list" ~specs:[] args (fun () ->
          List.iter (fun (n, _) -> print_endline n) (K.all ());
          0))

let show_cmd =
  Cli.cmd "show" ~doc:"print a kernel's source program" (fun args ->
      let prog = "shacklec show" in
      let kernel = ref None in
      Cli.run ~prog ~positional:(kernel_positional kernel) ~specs:[] args
        (fun () ->
          with_kernel ~prog kernel (fun (_, p) ->
              print_string (Ast.program_to_string p);
              0)))

let block_cmd =
  Cli.cmd "block" ~doc:"shackle a kernel and print the generated blocked code"
    (fun args ->
      let prog = "shacklec block" in
      let kernel = ref None and spec = ref None and size = ref 32 in
      let naive = ref false and stages = ref None and n = ref 0 in
      let specs =
        [ spec_flag spec; size_flag size;
          Cli.flag "--naive" ~doc:"print the naive (Figure 5) form" naive;
          Cli.string_opt "--stages" ~docv:"S1,S2,..."
            ~doc:
              (Printf.sprintf
                 "extra simplifier stages to compose after codegen \
                  (comma-separated; known: %s)"
                 (String.concat ", " (Loopir.Stages.names ())))
            stages;
          Cli.int "--n" ~docv:"N"
            ~doc:
              "also specialize at problem size N (prints the solver-free \
               specialized program: entailed guards dropped, min/max \
               bounds peeled)"
            n ]
      in
      Cli.run ~prog ~positional:(kernel_positional kernel) ~specs args (fun () ->
          with_kernel ~prog kernel (fun ((_, p) as k) ->
              let s = spec_of k (Option.value ~default:"default" !spec) ~size:!size in
              match
                match !stages with
                | None -> []
                | Some names ->
                  Loopir.Stages.of_names
                    (List.filter
                       (fun s -> s <> "")
                       (String.split_on_char ',' names))
              with
              | exception Invalid_argument msg ->
                Printf.eprintf "%s: %s\n" prog msg;
                2
              | stages ->
                let g =
                  Pipeline.codegen ~naive:!naive ~stages (Pipeline.create p) s
                in
                print_string (Ast.program_to_string g);
                if !n > 0 then begin
                  Printf.printf "\n! specialized at N = %d\n" !n;
                  print_string
                    (Ast.program_to_string
                       (Loopir.Stages.specialize ~params:[ ("N", !n) ] g))
                end;
                0)))

let legal_cmd =
  Cli.cmd "legal" ~doc:"run the Theorem 1 legality test" (fun args ->
      let prog = "shacklec legal" in
      let kernel = ref None and spec = ref None and size = ref 32 in
      let timeout_ms = ref None and fuel = ref None and connect = ref None in
      let budget_ms = ref None in
      Cli.run ~prog ~positional:(kernel_positional kernel)
        ~specs:
          [ spec_flag spec; size_flag size; Cli.timeout_ms timeout_ms;
            Cli.fuel fuel; Cli.connect connect; Cli.budget_ms budget_ms ]
        args (fun () ->
          with_kernel ~prog kernel (fun ((name, p) as k) ->
              let spec_name = Option.value ~default:"default" !spec in
              match !connect with
              | Some addr ->
                remote_rpc ~prog addr
                  (Server.Proto.Probe
                     { kernel = name; spec = spec_name; size = !size;
                       budget_ms = !budget_ms })
                  (function
                    | Server.Proto.R_verdict { verdict } ->
                      print_endline verdict;
                      if String.equal verdict "legal" then 0 else 1
                    | _ ->
                      Printf.eprintf "%s: unexpected reply\n" prog;
                      1)
              | None ->
                let s = spec_of k spec_name ~size:!size in
                let solver =
                  Omega.Ctx.create ~cache:true ?fuel:!fuel
                    ?timeout_ms:!timeout_ms ()
                in
                (match Pipeline.check (Pipeline.create ~solver p) s with
                | Legality.Legal ->
                  print_endline "legal";
                  0
                | (Legality.Illegal _ | Legality.Unknown _) as v ->
                  Format.printf "%a@." Legality.pp_verdict v;
                  1))))

let choices_cmd =
  Cli.cmd "choices"
    ~doc:
      "enumerate all single-factor shackles of the kernel's main array and \
       test each" (fun args ->
      let prog = "shacklec choices" in
      let kernel = ref None and size = ref 32 in
      Cli.run ~prog ~positional:(kernel_positional kernel)
        ~specs:[ size_flag size ] args (fun () ->
          with_kernel ~prog kernel (fun (_, p) ->
              let array = (List.hd p.Ast.arrays).Ast.a_name in
              let pipe = Pipeline.create p in
              List.iter
                (fun choices ->
                  let spec =
                    [ Shackle.Spec.factor
                        (Shackle.Blocking.blocks_2d ~array ~size:!size)
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
                  Printf.printf "%-60s %s\n" label
                    (if Pipeline.is_legal pipe spec then "legal" else "ILLEGAL"))
                (Pipeline.choices pipe ~array);
              0)))

let verify_cmd =
  Cli.cmd "verify"
    ~doc:
      "generate blocked code and check it computes the same values as the \
       original" (fun args ->
      let prog = "shacklec verify" in
      let kernel = ref None and spec = ref None in
      let size = ref 32 and n = ref 64 and bw = ref 8 in
      Cli.run ~prog ~positional:(kernel_positional kernel)
        ~specs:[ spec_flag spec; size_flag size; n_flag n; bw_flag bw ] args
        (fun () ->
          with_kernel ~prog kernel (fun ((_, p) as k) ->
              let s = spec_of k (Option.value ~default:"default" !spec) ~size:!size in
              let diff =
                Pipeline.verify (Pipeline.create p) ~spec:s
                  ~params:(params_of k ~n:!n ~bw:!bw)
                  ~init:(init_of k ~n:!n ~bw:!bw)
              in
              Printf.printf "max |difference| = %g\n" diff;
              if diff <= 1e-9 then 0 else 1)))

let bounds_cmd =
  Cli.cmd "bounds"
    ~doc:
      "analytic communication lower bounds: per-statement HBL exponents \
       and the per-level miss bound (compulsory / windowed / phase), \
       compared against the simulated misses" (fun args ->
      let prog = "shacklec bounds" in
      let kernel = ref None and spec = ref None in
      let size = ref 32 and n = ref 64 and bw = ref 8 in
      let machines = ref [] and json = ref None and no_sim = ref false in
      let specs =
        [ spec_flag spec; size_flag size; n_flag n; bw_flag bw;
          machine_flag machines; Cli.json json;
          Cli.flag "--no-sim"
            ~doc:"skip the simulated-misses comparison (bounds only)" no_sim ]
      in
      Cli.run ~prog ~positional:(kernel_positional kernel) ~specs args (fun () ->
          with_kernel ~prog kernel (fun ((name, p) as k) ->
              let params = params_of k ~n:!n ~bw:!bw in
              let spec_name = !spec in
              let spec =
                Option.map (fun s -> spec_of k s ~size:!size) spec_name
              in
              let machines =
                match !machines with [] -> [ Model.sp2_like ] | ms -> ms
              in
              match Bounds.analyze ?spec ~params p with
              | exception Loopir.Domain.Not_affine _ ->
                Printf.eprintf "%s: %s is not affine\n" prog name;
                1
              | t ->
                Printf.printf "bounds %s at %s%s\n" name
                  (String.concat ", "
                     (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) params))
                  (match spec_name with
                  | None -> " (order-free: any execution order)"
                  | Some s ->
                    Printf.sprintf " under --spec %s --size %d" s !size);
                List.iter
                  (fun (s : Bounds.stmt_info) ->
                    Printf.printf
                      "  %s: depth %d, %d instances, sigma %s\n"
                      s.Bounds.si_label s.Bounds.si_depth s.Bounds.si_iterations
                      (Ratio.to_string s.Bounds.si_sigma))
                  (Bounds.stmts t);
                Printf.printf "  distinct elements >= %d\n" (Bounds.distinct t);
                let machine_json = ref [] in
                List.iter
                  (fun (m : Model.t) ->
                    let sim =
                      if !no_sim then None
                      else
                        Some
                          (Model.simulate ~machine:m ~quality:Model.untuned p
                             ~params ~init:(init_of k ~n:!n ~bw:!bw))
                    in
                    Printf.printf "  %s:\n" m.Model.m_name;
                    let level_json = ref [] in
                    List.iteri
                      (fun i (lb : Bounds.level_bound) ->
                        let simulated =
                          Option.map
                            (fun (r : Model.result) ->
                              (List.nth r.Model.r_levels i).Model.s_misses)
                            sim
                        in
                        Printf.printf
                          "    %s: misses >= %d (compulsory %d, windowed %d, \
                           phase %d)%s\n"
                          lb.Bounds.lb_level lb.Bounds.lb_misses
                          lb.Bounds.lb_compulsory lb.Bounds.lb_windowed
                          lb.Bounds.lb_hbl
                          (match simulated with
                          | Some mi when lb.Bounds.lb_misses > 0 ->
                            Printf.sprintf "; simulated %d (headroom %.2f)" mi
                              (float_of_int mi /. float_of_int lb.Bounds.lb_misses)
                          | Some mi -> Printf.sprintf "; simulated %d" mi
                          | None -> "");
                        level_json :=
                          ( lb.Bounds.lb_level,
                            Json.Obj
                              ([ ("misses", Json.Int lb.Bounds.lb_misses);
                                 ("compulsory", Json.Int lb.Bounds.lb_compulsory);
                                 ("windowed", Json.Int lb.Bounds.lb_windowed);
                                 ("phase", Json.Int lb.Bounds.lb_hbl) ]
                              @
                              match simulated with
                              | None -> []
                              | Some mi -> [ ("simulated", Json.Int mi) ]) )
                          :: !level_json)
                      (Bounds.level_bounds t (Tune.machine_levels m));
                    machine_json :=
                      ( m.Model.m_name,
                        Json.Obj (List.rev !level_json) )
                      :: !machine_json)
                  machines;
                (match !json with
                | Some file ->
                  write_file file
                    (Json.to_string ~pretty:true
                       (Json.Obj
                          [ ("schema", Json.Str Report.bounds_report);
                            ("kernel", Json.Str name);
                            ( "params",
                              Json.Obj
                                (List.map (fun (k, v) -> (k, Json.Int v)) params)
                            );
                            ( "stmts",
                              Json.List
                                (List.map
                                   (fun (s : Bounds.stmt_info) ->
                                     Json.Obj
                                       [ ("label", Json.Str s.Bounds.si_label);
                                         ("depth", Json.Int s.Bounds.si_depth);
                                         ( "iterations",
                                           Json.Int s.Bounds.si_iterations );
                                         ( "sigma",
                                           Json.Str
                                             (Ratio.to_string s.Bounds.si_sigma)
                                         ) ])
                                   (Bounds.stmts t)) );
                            ("distinct", Json.Int (Bounds.distinct t));
                            ("machines", Json.Obj (List.rev !machine_json)) ])
                    ^ "\n")
                | None -> ());
                0)))

let sim_cmd =
  Cli.cmd "sim"
    ~doc:
      "simulate original and blocked code and report both (one recording per \
       program, replayed per machine/quality)" (fun args ->
      let prog = "shacklec sim" in
      let kernel = ref None and spec = ref None in
      let size = ref 32 and n = ref 64 and bw = ref 8 in
      let tuned = ref false and machines = ref [] and qualities = ref [] in
      let par_exec = ref false and domains = ref 2 and cores = ref 2 in
      let connect = ref None and budget_ms = ref None in
      let specs =
        [ spec_flag spec; size_flag size; n_flag n; bw_flag bw;
          Cli.flag "--tuned"
            ~doc:"simulate with hand-tuned inner-loop quality (unless --quality)"
            tuned;
          machine_flag machines; quality_flag qualities;
          Cli.flag "--par-exec"
            ~doc:
              "also execute each program's blocks over the dependence DAG on \
               --domains workers, level by level; prints the plan shape and \
               the shared-L2 multicore replay (every simulated result is \
               identical to sequential)"
            par_exec;
          Cli.domains domains;
          Cli.int "--cores" ~docv:"C"
            ~doc:
              "virtual cores for the shared-L2 multicore replay under \
               --par-exec (default 2)"
            cores;
          Cli.connect connect; Cli.budget_ms budget_ms ]
      in
      Cli.run ~prog ~positional:(kernel_positional kernel) ~specs args (fun () ->
          with_kernel ~prog kernel (fun ((name, p) as k) ->
              match !connect with
              | Some addr ->
                let machine =
                  (match !machines with m :: _ -> m | [] -> Model.sp2_like)
                    .Model.m_name
                in
                let quality =
                  (match !qualities with
                  | q :: _ -> q
                  | [] -> if !tuned then Model.tuned else Model.untuned)
                    .Model.q_name
                in
                let sim spec =
                  Server.Proto.Sim
                    { kernel = name; spec; size = !size; n = !n; machine;
                      quality; budget_ms = !budget_ms }
                in
                let show label = function
                  | Server.Proto.R_sim { cycles; mflops; flops; accesses } ->
                    Printf.printf
                      "%-10s %-9s %-7s %.0f cycles, %.2f mflops, %d flops, \
                       %d accesses\n"
                      label machine quality cycles mflops flops accesses;
                    0
                  | _ ->
                    Printf.eprintf "%s: unexpected reply\n" prog;
                    1
                in
                let rc = remote_rpc ~prog addr (sim None) (show "original") in
                if rc <> 0 then rc
                else
                  remote_rpc ~prog addr
                    (sim (Some (Option.value ~default:"default" !spec)))
                    (show "blocked")
              | None ->
              let s = spec_of k (Option.value ~default:"default" !spec) ~size:!size in
              let pipe = Pipeline.create p in
              let machines =
                match !machines with [] -> [ Model.sp2_like ] | ms -> ms
              in
              let qualities =
                match !qualities with
                | [] -> [ (if !tuned then Model.tuned else Model.untuned) ]
                | qs -> qs
              in
              let variants =
                List.concat_map
                  (fun m -> List.map (fun q -> (m, q)) qualities)
                  machines
              in
              let params = params_of k ~n:!n ~bw:!bw in
              let init = init_of k ~n:!n ~bw:!bw in
              let go label spec =
                (* the scheduler's merged recording is byte-identical to
                   the sequential one, so every replay below is unchanged
                   by --par-exec; the extra output is the plan shape and
                   the shared-L2 multicore replay *)
                let recording, sched =
                  if !par_exec then begin
                    let plan = Sched.plan pipe ~spec ~params in
                    let recording, res =
                      Sched.record ~domains:!domains plan ~init
                    in
                    (recording, Some (plan, res))
                  end
                  else
                    (* per-size specialized variant: same trace, faster
                       interpretation (one Omega derivation per spec) *)
                    ( Model.record
                        (Pipeline.specialize ?spec pipe ~params)
                        ~params ~init,
                      None )
                in
                let tr = recording.Model.rec_trace in
                Format.printf "%s: recorded %d accesses (%d chunks, %d KB)@."
                  label (Trace.length tr) (Trace.num_chunks tr)
                  (Trace.bytes tr / 1024);
                (match sched with
                 | None -> ()
                 | Some (plan, res) ->
                   let plural k = if k = 1 then "" else "s" in
                   let tasks = Sched.tasks plan in
                   let levels = List.length (Sched.levels plan) in
                   Format.printf
                     "  sched: %d task%s, %d edges, %d level%s (max width \
                      %d)%s, %d domain%s, %d stalls@."
                     tasks (plural tasks) (Sched.edges plan) levels
                     (plural levels) (Sched.max_width plan)
                     (if Sched.serialized plan then " (serialized)" else "")
                     res.Sched.x_domains (plural res.Sched.x_domains)
                     res.Sched.x_stalls;
                   let smp = Sched.smp ~cores:!cores plan res in
                   Format.printf
                     "  smp:   %d cores, makespan %.0f cycles, %.2f mflops@."
                     smp.Model.Smp.p_cores smp.Model.Smp.p_cycles
                     smp.Model.Smp.p_mflops);
                List.iter
                  (fun (machine, quality) ->
                    let r = Pipeline.consume ~machine ~quality recording in
                    Format.printf "  %-10s %-9s %-7s %a@." label
                      machine.Model.m_name quality.Model.q_name Model.pp_result
                      r)
                  variants
              in
              go "original" None;
              go "blocked" (Some s);
              0)))

let search_cmd =
  Cli.cmd "search"
    ~doc:
      "automatically derive a good shackle (Section 8): enumerate, filter by \
       legality, rank by Theorem 2 and simulated cycles" (fun args ->
      let prog = "shacklec search" in
      let kernel = ref None and size = ref 32 and n = ref 64 in
      Cli.run ~prog ~positional:(kernel_positional kernel)
        ~specs:[ size_flag size; n_flag n ] args (fun () ->
          with_kernel ~prog kernel (fun (name, p) ->
              let options = { Tune.default_options with sizes = [ !size ] } in
              match
                Tune.best
                  (Tune.tune ~options ~kernel:name ~params:[ ("N", !n) ] p)
              with
              | None ->
                print_endline
                  "no legal candidate (a statement may need a dummy reference)";
                1
              | Some best ->
                let c = best.Tune.s_cand in
                Format.printf
                  "best candidate (%d factor%s, fully constrained: %b, %.0f \
                   simulated cycles at N=%d):@."
                  c.Tune.c_factors
                  (if c.Tune.c_factors = 1 then "" else "s")
                  c.Tune.c_fully_constrained best.Tune.s_cycles !n;
                Format.printf "%a@." Shackle.Spec.pp c.Tune.c_spec;
                print_endline "--- generated code ---";
                print_string
                  (Ast.program_to_string
                     (Pipeline.codegen (Pipeline.create p) c.Tune.c_spec));
                0)))

let parse_cmd =
  Cli.cmd "parse"
    ~doc:
      "parse a program file (the pretty-printer's syntax), analyze it and \
       report" (fun args ->
      let prog = "shacklec parse" in
      let file = ref None and connect = ref None in
      let positional =
        ( "FILE",
          fun v ->
            match !file with
            | Some _ -> Error (Printf.sprintf "unexpected extra argument %S" v)
            | None ->
              file := Some v;
              Ok () )
      in
      Cli.run ~prog ~positional ~specs:[ Cli.connect connect ] args (fun () ->
          match !file with
          | None ->
            Printf.eprintf "%s: expects a FILE argument (try --help)\n" prog;
            2
          | Some file -> begin
            match !connect with
            | Some addr ->
              remote_rpc ~prog addr
                (Server.Proto.Parse { text = read_file file })
                (function
                  | Server.Proto.R_parsed { pretty; deps } ->
                    print_string pretty;
                    Printf.printf "\n%d dependences\n" deps;
                    0
                  | _ ->
                    Printf.eprintf "%s: unexpected reply\n" prog;
                    1)
            | None -> begin
              match Pipeline.parse (read_file file) with
              | Error msg ->
                Printf.eprintf "%s: %s\n" file msg;
                1
              | Ok pipe ->
                print_string (Ast.program_to_string (Pipeline.program pipe));
                let deps = Pipeline.deps pipe in
                Printf.printf "\n%d dependences:\n" (List.length deps);
                List.iter
                  (fun d -> Format.printf "  %a@." Dependence.Dep.pp d)
                  deps;
                0
            end
          end))

let tune_cmd =
  Cli.cmd "tune"
    ~doc:
      "cost-model-guided shackle autotuning: enumerate candidates, prune by \
       Theorem 2, check legality through the memoized solver, prune by the \
       communication lower bound, rank by replayed simulation" (fun args ->
      let prog = "shacklec tune" in
      let kernel = ref None in
      let sizes = ref [] and n = ref 0 and bw = ref 8 and depth = ref 2 in
      let arrays = ref [] and machines = ref [] and qualities = ref [] in
      let domains = ref 1 and quick = ref false and json = ref None in
      let check_json = ref None in
      let timeout_ms = ref None and fuel = ref None and connect = ref None in
      let budget_ms = ref None in
      let sweep_ns = ref [] in
      let specs =
        [ Cli.int_list "--size" ~docv:"B"
            ~doc:"block size to enumerate (repeatable; default 16)" sizes;
          Cli.int "--n" ~docv:"N" ~doc:"problem size (default 64; 40 with --quick)" n;
          Cli.int_list "--sweep-n" ~docv:"N"
            ~doc:
              "evaluate candidates at this problem size (repeatable): \
               codegen and legality run once, each size re-instantiates \
               the cached program through the solver-free specializer, \
               and ranking sums cycles over the sweep"
            sweep_ns;
          bw_flag bw;
          Cli.int "--depth" ~docv:"D"
            ~doc:"maximum Cartesian-product factors (default 2)" depth;
          Cli.string_list "--array" ~docv:"A"
            ~doc:
              "restrict shackled arrays (repeatable; default: rank-2 arrays \
               referenced by every statement)"
            arrays;
          machine_flag machines; quality_flag qualities;
          Cli.domains domains; Cli.quick quick; Cli.json json;
          Cli.timeout_ms timeout_ms; Cli.fuel fuel; Cli.connect connect;
          Cli.budget_ms budget_ms;
          Cli.string_opt "--check-json" ~docv:"FILE"
            ~doc:"validate a previously written tune report and exit" check_json ]
      in
      Cli.run ~prog ~positional:(kernel_positional kernel) ~specs args (fun () ->
          match !check_json with
          | Some file -> begin
            match Json.of_string (read_file file) with
            | Error msg ->
              Printf.eprintf "%s: %s: invalid JSON: %s\n" prog file msg;
              1
            | Ok j -> begin
              match Tune.check_report_json j with
              | Ok () ->
                Printf.printf "%s: valid %s\n" file Report.tune_report;
                0
              | Error msg ->
                Printf.eprintf "%s: %s: %s\n" prog file msg;
                1
            end
          end
          | None ->
            with_kernel ~prog kernel (fun ((name, p) as k) ->
                let sizes =
                  match !sizes with
                  | [] -> if !quick then [ 8 ] else [ 16 ]
                  | ss -> ss
                in
                let n = if !n > 0 then !n else if !quick then 40 else 64 in
                match !connect with
                | Some addr ->
                  remote_rpc ~prog addr
                    (Server.Proto.Tune
                       { kernel = name; size = List.hd sizes; n;
                         budget_ms = !budget_ms })
                    (function
                      | Server.Proto.R_tuned { label; cycles; candidates } ->
                        Printf.printf
                          "best of %d candidates: %s (%.0f cycles at N=%d)\n"
                          candidates label cycles n;
                        0
                      | _ ->
                        Printf.eprintf "%s: unexpected reply\n" prog;
                        1)
                | None ->
                let options =
                  { Tune.sizes;
                    depth = !depth;
                    domains = !domains;
                    machines =
                      (match !machines with [] -> [ Model.sp2_like ] | ms -> ms);
                    qualities =
                      (match !qualities with [] -> [ Model.untuned ] | qs -> qs);
                    timeout_ms = !timeout_ms;
                    fuel = !fuel;
                    ns = List.sort_uniq compare !sweep_ns }
                in
                let rp =
                  Tune.tune ~options
                    ?arrays:(match !arrays with [] -> None | a -> Some a)
                    ~init:(init_of k ~n ~bw:!bw) ~kernel:name
                    ~params:(params_of k ~n ~bw:!bw)
                    p
                in
                Format.printf "%a@." Tune.pp_report rp;
                (match !json with
                | Some file ->
                  write_file file
                    (Json.to_string ~pretty:true (Tune.report_to_json rp) ^ "\n")
                | None -> ());
                (match Tune.best rp with
                | Some _ -> 0
                | None ->
                  prerr_endline
                    "no legal candidate (a statement may need a dummy reference)";
                  1))))

let () =
  exit
    (Cli.dispatch ~prog:"shacklec"
       ~doc:"data-centric multi-level blocking (PLDI 1997) compiler driver"
       ~version:"1.0"
       [ list_cmd; show_cmd; block_cmd; legal_cmd; choices_cmd; verify_cmd;
         bounds_cmd; sim_cmd; search_cmd; tune_cmd; parse_cmd ]
       Sys.argv)
