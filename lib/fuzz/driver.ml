module Ast = Loopir.Ast
module Json = Observe.Json

type failure_report = {
  seed : int;
  kind : Oracle.kind;
  detail : string;
  spec_text : string option;
  program_text : string;
  original_stmts : int;
  minimized_stmts : int;
  injected : bool;
  repro : string;
}

type report = {
  first_seed : int;
  seeds : int;
  quick : bool;
  timeout_ms : int option;
  fuel : int option;
  inject : string;
  stats : Oracle.stats;
  failures : failure_report list;
}

let stmt_count prog = List.length (Ast.statements prog)

(* The full command line that re-runs exactly one seed under the same
   budget and fault plan — every flag that can change the outcome is
   spelled out, so a report line is copy-paste reproducible. *)
let repro_command ~quick ~tune ~par ~wire ~stage ~bound ~timeout_ms ~fuel
    ~inject seed =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Printf.sprintf "fuzz --seed %d --seeds 1" seed);
  if quick then Buffer.add_string buf " --quick";
  if tune then Buffer.add_string buf " --tune";
  if par then Buffer.add_string buf " --par-exec";
  if wire then Buffer.add_string buf " --wire";
  if stage then Buffer.add_string buf " --stage";
  if bound then Buffer.add_string buf " --bound";
  (match timeout_ms with
  | Some t -> Buffer.add_string buf (Printf.sprintf " --timeout-ms %d" t)
  | None -> ());
  (match fuel with
  | Some f -> Buffer.add_string buf (Printf.sprintf " --fuel %d" f)
  | None -> ());
  (let sub = Fault.restrict inject ~seed in
   if not (Fault.is_none sub) then
     Buffer.add_string buf
       (Printf.sprintf " --inject %s" (Fault.to_string sub)));
  Buffer.contents buf

let run_seed ?(hooks = Oracle.default_hooks) ?(tune = false) ?(par = false)
    ?(wire = false) ?(stage = false) ?(bound = false) ?timeout_ms ?fuel
    ?(inject = Fault.none) ?token ~config ~quick seed =
  let repro =
    repro_command ~quick ~tune ~par ~wire ~stage ~bound ~timeout_ms ~fuel
      ~inject seed
  in
  (* pre-oracle faults first: an injected crash/delay hits before any real
     work, like a worker dying on startup would *)
  Fault.apply_pre inject ~seed;
  Option.iter Runner.Token.check token;
  let budget =
    { Oracle.fuel; starve_after = Fault.starve_for inject ~seed; token }
  in
  let prog = Gen.program ~quick (Rng.create seed) in
  match
    Oracle.check ~hooks ~tune ~par ~wire ~stage ~bound ~budget config prog
  with
  | Ok stats -> Ok stats
  | Error f ->
    let keep p =
      match
        Oracle.check ~hooks ~tune ~par ~wire ~stage ~bound ~budget config p
      with
      | Error f' -> f'.Oracle.kind = f.Oracle.kind
      | Ok _ -> false
    in
    let minimized = Shrink.minimize ~keep prog in
    (* re-run for the failure details of the minimized program *)
    let f =
      match
        Oracle.check ~hooks ~tune ~par ~wire ~stage ~bound ~budget config
          minimized
      with
      | Error f' -> f'
      | Ok _ -> f (* cannot happen: [keep] accepted [minimized] *)
    in
    Error
      { seed;
        kind = f.Oracle.kind;
        detail = f.Oracle.detail;
        spec_text = f.Oracle.spec_text;
        program_text = Ast.program_to_string minimized;
        original_stmts = stmt_count prog;
        minimized_stmts = stmt_count minimized;
        injected = false;
        repro }

(* ------------------------------------------------------------------ *)
(* Checkpoint file                                                     *)
(* ------------------------------------------------------------------ *)

(* Append-only JSONL: the first line states the campaign configuration (a
   resume refuses a file written by a different one), then one line per
   completed seed, written as tasks finish and fsynced every
   [checkpoint_batch] rows.  A kill can truncate the last line mid-write;
   the loader drops any unparseable line, which merely re-runs that seed. *)

let checkpoint_batch = 8

type row = Row_ok of Oracle.stats | Row_fail of failure_report

let stats_to_json (s : Oracle.stats) =
  Json.Obj
    [ ("specs", Json.Int s.Oracle.specs);
      ("legal_specs", Json.Int s.Oracle.legal_specs);
      ("verified", Json.Int s.Oracle.verified);
      ("skipped", Json.Int s.Oracle.skipped);
      ("tune_checked", Json.Int s.Oracle.tune_checked);
      ("par_checked", Json.Int s.Oracle.par_checked);
      ("wire_checked", Json.Int s.Oracle.wire_checked);
      ("chaos_checked", Json.Int s.Oracle.chaos_checked);
      ("stage_checked", Json.Int s.Oracle.stage_checked);
      ("bound_checked", Json.Int s.Oracle.bound_checked);
      ("gave_up", Json.Int s.Oracle.gave_up) ]

(* Strict: a row lacking any counter is dropped like a torn line, and its
   seed re-runs.  [load_checkpoint] only reads files whose meta line
   matches the current campaign, so every counter is always present. *)
let stats_of_json j =
  let int k =
    match Json.member k j with Some (Json.Int i) -> Some i | _ -> None
  in
  match
    ( ( int "specs", int "legal_specs", int "verified", int "skipped",
        int "tune_checked", int "par_checked" ),
      ( int "wire_checked", int "chaos_checked", int "stage_checked",
        int "bound_checked", int "gave_up" ) )
  with
  | ( ( Some specs, Some legal_specs, Some verified, Some skipped,
        Some tune_checked, Some par_checked ),
      ( Some wire_checked, Some chaos_checked, Some stage_checked,
        Some bound_checked, Some gave_up ) ) ->
    Some
      { Oracle.specs; legal_specs; verified; skipped; tune_checked;
        par_checked; wire_checked; chaos_checked; stage_checked;
        bound_checked; gave_up }
  | _ -> None

let failure_to_json f =
  Json.Obj
    [ ("seed", Json.Int f.seed);
      ("kind", Json.Str (Oracle.kind_string f.kind));
      ("detail", Json.Str f.detail);
      ("spec", match f.spec_text with Some s -> Json.Str s | None -> Json.Null);
      ("program", Json.Str f.program_text);
      ("original_stmts", Json.Int f.original_stmts);
      ("minimized_stmts", Json.Int f.minimized_stmts);
      ("injected", Json.Bool f.injected);
      ("repro", Json.Str f.repro) ]

let failure_of_json j =
  let int k =
    match Json.member k j with Some (Json.Int i) -> Some i | _ -> None
  in
  let str k =
    match Json.member k j with Some (Json.Str s) -> Some s | _ -> None
  in
  let bool k =
    match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None
  in
  let spec_text =
    match Json.member "spec" j with Some (Json.Str s) -> Some s | _ -> None
  in
  match
    ( int "seed",
      Option.bind (str "kind") Oracle.kind_of_string,
      str "detail", str "program", int "original_stmts",
      int "minimized_stmts", bool "injected", str "repro" )
  with
  | Some seed, Some kind, Some detail, Some program_text, Some original_stmts,
    Some minimized_stmts, Some injected, Some repro ->
    Some
      { seed; kind; detail; spec_text; program_text; original_stmts;
        minimized_stmts; injected; repro }
  | _ -> None

let row_to_json seed = function
  | Row_ok s ->
    Json.Obj
      [ ("seed", Json.Int seed);
        ("outcome", Json.Str "ok");
        ("stats", stats_to_json s) ]
  | Row_fail f ->
    Json.Obj
      [ ("seed", Json.Int seed);
        ("outcome", Json.Str "fail");
        ("failure", failure_to_json f) ]

let row_of_json j =
  match (Json.member "seed" j, Json.member "outcome" j) with
  | Some (Json.Int seed), Some (Json.Str "ok") ->
    Option.map
      (fun s -> (seed, Row_ok s))
      (Option.bind (Json.member "stats" j) stats_of_json)
  | Some (Json.Int seed), Some (Json.Str "fail") ->
    Option.map
      (fun f -> (seed, Row_fail f))
      (Option.bind (Json.member "failure" j) failure_of_json)
  | _ -> None

let opt_int = function Some i -> Json.Int i | None -> Json.Null

let meta_json ~first_seed ~seeds ~quick ~tune ~par ~wire ~stage ~bound
    ~timeout_ms ~fuel ~inject =
  Json.Obj
    [ ("schema", Json.Str Report.fuzz_checkpoint);
      ("first_seed", Json.Int first_seed);
      ("seeds", Json.Int seeds);
      ("quick", Json.Bool quick);
      ("tune", Json.Bool tune);
      ("par", Json.Bool par);
      ("wire", Json.Bool wire);
      ("stage", Json.Bool stage);
      ("bound", Json.Bool bound);
      ("timeout_ms", opt_int timeout_ms);
      ("fuel", opt_int fuel);
      ("inject", Json.Str (Fault.to_string inject)) ]

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let load_checkpoint path ~meta =
  if not (Sys.file_exists path) then Ok []
  else
    match read_lines path with
    | [] -> Ok []
    | m :: rest -> (
      match Json.of_string m with
      | Ok j when Json.equal j meta ->
        Ok
          (List.filter_map
             (fun line ->
               match Json.of_string line with
               | Ok j -> row_of_json j
               | Error _ -> None)
             rest)
      | Ok _ ->
        Error
          (path
          ^ ": checkpoint was written by a different campaign configuration")
      | Error e -> Error (Printf.sprintf "%s: unreadable checkpoint meta (%s)" path e))

(* ------------------------------------------------------------------ *)
(* The campaign                                                        *)
(* ------------------------------------------------------------------ *)

exception Resume_mismatch of string

let run ?(hooks = Oracle.default_hooks) ?(tune = false) ?(par = false)
    ?(wire = false) ?(stage = false) ?(bound = false) ?(domains = 1)
    ?timeout_ms ?fuel ?(retries = 0) ?(inject = Fault.none) ?checkpoint
    ?(resume = false) ~quick ~seeds ~first_seed () =
  let config = if quick then Oracle.quick else Oracle.thorough in
  let seed_list = List.init seeds (fun i -> first_seed + i) in
  let meta =
    meta_json ~first_seed ~seeds ~quick ~tune ~par ~wire ~stage ~bound
      ~timeout_ms ~fuel ~inject
  in
  let completed : (int, row) Hashtbl.t = Hashtbl.create 64 in
  (match checkpoint with
  | Some path when resume -> (
    match load_checkpoint path ~meta with
    | Ok rows -> List.iter (fun (s, r) -> Hashtbl.replace completed s r) rows
    | Error msg -> raise (Resume_mismatch msg))
  | _ -> ());
  let pending_seeds =
    List.filter (fun s -> not (Hashtbl.mem completed s)) seed_list
  in
  let sink =
    match checkpoint with
    | None -> None
    | Some path ->
      let appending = resume && Sys.file_exists path in
      let oc =
        if appending then open_out_gen [ Open_append; Open_wronly ] 0o644 path
        else open_out path
      in
      if not appending then begin
        output_string oc (Json.to_string meta);
        output_char oc '\n'
      end;
      Some (ref 0, oc)
  in
  let flush_sink () =
    match sink with
    | None -> ()
    | Some (pending, oc) ->
      pending := 0;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc)
  in
  let write_row seed row =
    match sink with
    | None -> ()
    | Some (pending, oc) ->
      output_string oc (Json.to_string (row_to_json seed row));
      output_char oc '\n';
      incr pending;
      if !pending >= checkpoint_batch then flush_sink ()
  in
  let row_of_outcome seed (o : _ Runner.outcome) =
    let blank_failure kind detail injected =
      { seed; kind; detail; spec_text = None; program_text = "";
        original_stmts = 0; minimized_stmts = 0; injected;
        repro =
          repro_command ~quick ~tune ~par ~wire ~stage ~bound ~timeout_ms
            ~fuel ~inject seed }
    in
    match o with
    | Runner.Ok (Ok stats) -> Row_ok stats
    | Runner.Ok (Error f) -> Row_fail f
    | Runner.Failed (Fault.Injected _, _) ->
      Row_fail (blank_failure Oracle.Crash "injected crash (fault plan)" true)
    | Runner.Failed (e, bt) ->
      Row_fail
        (blank_failure Oracle.Crash
           (Printf.sprintf "%s\n%s" (Printexc.to_string e)
              (Printexc.raw_backtrace_to_string bt))
           false)
    | Runner.Timed_out ->
      Row_fail
        (blank_failure Oracle.Timeout
           (match timeout_ms with
           | Some t -> Printf.sprintf "no result within %d ms" t
           | None -> "cancelled")
           (Fault.is_faulty inject ~seed))
  in
  let pending_arr = Array.of_list pending_seeds in
  let outcomes =
    Runner.map_outcomes ~domains ?timeout_ms ~retries
      ~on_outcome:(fun i o ->
        let seed = pending_arr.(i) in
        write_row seed (row_of_outcome seed o))
      (fun token seed ->
        run_seed ~hooks ~tune ~par ~wire ~stage ~bound ?timeout_ms ?fuel
          ~inject ~token ~config ~quick seed)
      pending_seeds
  in
  flush_sink ();
  (match sink with None -> () | Some (_, oc) -> close_out oc);
  List.iter2
    (fun seed o -> Hashtbl.replace completed seed (row_of_outcome seed o))
    pending_seeds outcomes;
  (* fold in seed order so the final report — and its JSON — is identical
     whether the campaign ran straight through or was killed and resumed *)
  let stats, failures_rev =
    List.fold_left
      (fun (stats, fails) seed ->
        match Hashtbl.find_opt completed seed with
        | Some (Row_ok s) -> (Oracle.add_stats stats s, fails)
        | Some (Row_fail f) -> (stats, f :: fails)
        | None -> (stats, fails))
      (Oracle.zero_stats, []) seed_list
  in
  { first_seed;
    seeds;
    quick;
    timeout_ms;
    fuel;
    inject = Fault.to_string inject;
    stats;
    failures = List.rev failures_rev }

let unexpected_failures r = List.filter (fun f -> not f.injected) r.failures

let summary r =
  let tune =
    if r.stats.Oracle.tune_checked > 0 then
      Printf.sprintf ", %d tune-checked" r.stats.Oracle.tune_checked
    else ""
  in
  let par =
    if r.stats.Oracle.par_checked > 0 then
      Printf.sprintf ", %d par-checked" r.stats.Oracle.par_checked
    else ""
  in
  let wire =
    if r.stats.Oracle.wire_checked > 0 then
      Printf.sprintf ", %d wire-checked" r.stats.Oracle.wire_checked
    else ""
  in
  let chaos =
    if r.stats.Oracle.chaos_checked > 0 then
      Printf.sprintf ", %d chaos-checked" r.stats.Oracle.chaos_checked
    else ""
  in
  let stage =
    if r.stats.Oracle.stage_checked > 0 then
      Printf.sprintf ", %d stage-checked" r.stats.Oracle.stage_checked
    else ""
  in
  let bound =
    if r.stats.Oracle.bound_checked > 0 then
      Printf.sprintf ", %d bound-checked" r.stats.Oracle.bound_checked
    else ""
  in
  let gave_up =
    if r.stats.Oracle.gave_up > 0 then
      Printf.sprintf ", %d gave-up" r.stats.Oracle.gave_up
    else ""
  in
  let injected =
    let n = List.length r.failures - List.length (unexpected_failures r) in
    if n > 0 then Printf.sprintf " (%d injected)" n else ""
  in
  Printf.sprintf
    "%d seeds: %d specs (%d legal), %d runs verified, %d skipped%s%s%s%s%s%s%s, %d failures%s"
    r.seeds r.stats.Oracle.specs r.stats.Oracle.legal_specs
    r.stats.Oracle.verified r.stats.Oracle.skipped tune par wire chaos stage
    bound gave_up (List.length r.failures) injected

let indent text =
  String.split_on_char '\n' text
  |> List.map (fun l -> if String.equal l "" then l else "    " ^ l)
  |> String.concat "\n"

let failure_to_string f =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%s (%s) at seed %d\n"
       (if f.injected then "INJECTED FAILURE" else "FAILURE")
       (Oracle.kind_string f.kind) f.seed);
  Buffer.add_string buf (Printf.sprintf "  reproduce: %s\n" f.repro);
  Buffer.add_string buf (Printf.sprintf "  %s\n" f.detail);
  (match f.spec_text with
  | Some s -> Buffer.add_string buf (Printf.sprintf "  spec: %s\n" s)
  | None -> ());
  if not (String.equal f.program_text "") then
    Buffer.add_string buf
      (Printf.sprintf "  minimized program (%d statements, down from %d):\n%s"
         f.minimized_stmts f.original_stmts
         (indent f.program_text));
  Buffer.contents buf

let to_json r =
  Json.Obj
    [ ("schema", Json.Str Report.fuzz_report);
      ("first_seed", Json.Int r.first_seed);
      ("seeds", Json.Int r.seeds);
      ("quick", Json.Bool r.quick);
      ("timeout_ms", opt_int r.timeout_ms);
      ("fuel", opt_int r.fuel);
      ("inject", Json.Str r.inject);
      ("specs", Json.Int r.stats.Oracle.specs);
      ("legal_specs", Json.Int r.stats.Oracle.legal_specs);
      ("verified", Json.Int r.stats.Oracle.verified);
      ("skipped", Json.Int r.stats.Oracle.skipped);
      ("tune_checked", Json.Int r.stats.Oracle.tune_checked);
      ("par_checked", Json.Int r.stats.Oracle.par_checked);
      ("wire_checked", Json.Int r.stats.Oracle.wire_checked);
      ("chaos_checked", Json.Int r.stats.Oracle.chaos_checked);
      ("stage_checked", Json.Int r.stats.Oracle.stage_checked);
      ("bound_checked", Json.Int r.stats.Oracle.bound_checked);
      ("gave_up", Json.Int r.stats.Oracle.gave_up);
      ("failures", Json.List (List.map failure_to_json r.failures)) ]
