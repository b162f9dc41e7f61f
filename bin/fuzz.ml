(* Differential fuzzing CLI: generate random loop nests, run every oracle
   layer of {!Fuzzing.Oracle} on each one (parser, legality checker, code
   generator, replay, tuner, parallel scheduler, wire protocol,
   specialization and lower bounds against brute force or a second
   implementation), shrink any failure and print a self-contained repro.

   The campaign is supervised: --timeout-ms and --fuel bound each seed's
   solver work, --retries re-runs transient crashes, --inject plants
   deterministic faults (for testing the supervision itself), and
   --checkpoint/--resume make a killed campaign restartable with a
   byte-identical final report.

   Exit status 0 when every failure was injected by the fault plan (an
   injected campaign that fails only where told to is a success), 1 on any
   unexpected failure, 2 on usage errors.  Flags come from the shared
   {!Cli} module, so --seeds, --seed, --quick, --json and --domains spell
   the same as in shacklec and bench, and --timeout-ms and --fuel as in
   shacklec and shackled. *)

(* --check-json: one shared implementation (the Report registry), same
   exit discipline as `shacklec tune --check-json` and `bench
   --check-json`: 0 valid, 1 invalid, unreadable or another family. *)
let validate_report file =
  match Report.read file with
  | Ok (tag, _) when String.equal tag Report.fuzz_report ->
    Printf.printf "%s: valid %s\n" file tag;
    0
  | Ok (tag, _) ->
    Printf.eprintf "fuzz: %s: schema %S, expected %S\n" file tag
      Report.fuzz_report;
    1
  | Error e ->
    Printf.eprintf "fuzz: %s\n" e;
    1

let () =
  let seeds = ref 50 in
  let first_seed = ref 1 in
  let quick = ref false in
  let json = ref None in
  let domains = ref 1 in
  let timeout_ms = ref None in
  let fuel = ref None in
  let retries = ref 0 in
  let inject = ref "" in
  let checkpoint = ref None in
  let resume = ref false in
  let check_json = ref None in
  let specs =
    [ Cli.seeds seeds; Cli.seed first_seed; Cli.quick quick; Cli.json json;
      Cli.domains domains; Cli.timeout_ms timeout_ms; Cli.fuel fuel;
      Cli.arg1 "--retries" ~docv:"R"
        ~doc:"retry a crashed seed up to R times with backoff (default 0)"
        (fun v ->
          match int_of_string_opt v with
          | Some r when r >= 0 ->
            retries := r;
            Ok ()
          | _ ->
            Error
              (Printf.sprintf "--retries expects a non-negative integer, got %S" v));
      Cli.arg1 "--inject" ~docv:"PLAN"
        ~doc:
          "fault plan: comma-separated crash:SEED, delay:SEED:MS, \
           starve:SEED:K (supervision testing)"
        (fun v ->
          inject := v;
          Ok ());
      Cli.string_opt "--checkpoint" ~docv:"FILE"
        ~doc:"append each completed seed to FILE (fsynced per batch)" checkpoint;
      Cli.flag "--resume"
        ~doc:"skip seeds already recorded in the --checkpoint file" resume;
      Cli.string_opt "--check-json" ~docv:"FILE"
        ~doc:"validate FILE against the fuzz-report schema and exit"
        check_json ]
  in
  exit
    (Cli.run ~prog:"fuzz" ~specs
       (List.tl (Array.to_list Sys.argv))
       (fun () ->
         match !check_json with
         | Some file -> validate_report file
         | None ->
         match Fuzzing.Fault.parse !inject with
         | Error msg ->
           Printf.eprintf "fuzz: %s (try --help)\n" msg;
           2
         | Ok _ when !resume && !checkpoint = None ->
           prerr_endline "fuzz: --resume needs --checkpoint FILE (try --help)";
           2
         | Ok plan -> begin
           match
             Fuzzing.Driver.run ~domains:!domains ?timeout_ms:!timeout_ms
               ?fuel:!fuel ~retries:!retries
               ~inject:plan ?checkpoint:!checkpoint ~resume:!resume
               ~quick:!quick ~seeds:!seeds ~first_seed:!first_seed ()
           with
           | exception Fuzzing.Driver.Resume_mismatch msg ->
             Printf.eprintf "fuzz: %s\n" msg;
             2
           | report ->
             List.iter
               (fun f -> print_endline (Fuzzing.Driver.failure_to_string f))
               report.Fuzzing.Driver.failures;
             print_endline (Fuzzing.Driver.summary report);
             match
               Option.map
                 (fun file -> Report.write file (Fuzzing.Driver.to_json report))
                 !json
             with
             | Some (Error e) ->
               Printf.eprintf "fuzz: %s\n" e;
               1
             | None | Some (Ok ()) ->
               if Fuzzing.Driver.unexpected_failures report <> [] then 1 else 0
         end))
