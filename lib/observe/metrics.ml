module Model = Machine.Model

type level = {
  lv_name : string;
  lv_accesses : int;
  lv_hits : int;
  lv_misses : int;
  lv_evictions : int;
}

(* Trace-pipeline accounting for one simulation row.  [tr_executions] is
   1 on the row whose series triggered the interpreter execution and 0 on
   rows that reused the shared recording, so summing it over a figure
   counts real executions. *)
type trace_info = {
  tr_executions : int;
  tr_length : int;
  tr_chunks : int;
  tr_bytes : int;
  tr_record_seconds : float;
  tr_replay_seconds : float;
}

type sim = {
  sim_label : string;
  sim_machine : string;
  sim_quality : string;
  sim_flops : int;
  sim_instances : int;
  sim_accesses : int;
  sim_levels : level list;
  sim_cycles : float;
  sim_mflops : float;
  sim_seconds : float;
  sim_trace : trace_info option;
}

let of_result ~label ~machine ~quality ~seconds ?trace (r : Model.result) =
  { sim_label = label;
    sim_machine = machine;
    sim_quality = quality;
    sim_flops = r.Model.r_flops;
    sim_instances = r.Model.r_instances;
    sim_accesses = r.Model.r_accesses;
    sim_levels =
      List.map
        (fun (s : Model.level_stat) ->
          { lv_name = s.Model.s_name;
            lv_accesses = s.Model.s_accesses;
            lv_hits = s.Model.s_hits;
            lv_misses = s.Model.s_misses;
            lv_evictions = s.Model.s_evictions })
        r.Model.r_levels;
    sim_cycles = r.Model.r_cycles;
    sim_mflops = r.Model.r_mflops;
    sim_seconds = seconds;
    sim_trace = trace }

let level_to_json l =
  Json.Obj
    [ ("name", Json.Str l.lv_name);
      ("accesses", Json.Int l.lv_accesses);
      ("hits", Json.Int l.lv_hits);
      ("misses", Json.Int l.lv_misses);
      ("evictions", Json.Int l.lv_evictions) ]

let trace_info_to_json t =
  Json.Obj
    [ ("executions", Json.Int t.tr_executions);
      ("length", Json.Int t.tr_length);
      ("chunks", Json.Int t.tr_chunks);
      ("bytes", Json.Int t.tr_bytes);
      ("record_seconds", Json.Float t.tr_record_seconds);
      ("replay_seconds", Json.Float t.tr_replay_seconds) ]

(* The "trace" key is appended only when present, so a row built without
   trace accounting keeps the schema-version-1 byte layout. *)
let sim_to_json s =
  Json.Obj
    ([ ("label", Json.Str s.sim_label);
       ("machine", Json.Str s.sim_machine);
       ("quality", Json.Str s.sim_quality);
       ("flops", Json.Int s.sim_flops);
       ("instances", Json.Int s.sim_instances);
       ("accesses", Json.Int s.sim_accesses);
       ("levels", Json.List (List.map level_to_json s.sim_levels));
       ("cycles", Json.Float s.sim_cycles);
       ("mflops", Json.Float s.sim_mflops);
       ("seconds", Json.Float s.sim_seconds) ]
    @
    match s.sim_trace with
    | None -> []
    | Some t -> [ ("trace", trace_info_to_json t) ])

let ( let* ) r f = Result.bind r f

let level_of_json j =
  let* lv_name = Json.str_field "name" j in
  let* lv_accesses = Json.int_field "accesses" j in
  let* lv_hits = Json.int_field "hits" j in
  let* lv_misses = Json.int_field "misses" j in
  let* lv_evictions = Json.int_field "evictions" j in
  Ok { lv_name; lv_accesses; lv_hits; lv_misses; lv_evictions }

let trace_info_of_json j =
  let* tr_executions = Json.int_field "executions" j in
  let* tr_length = Json.int_field "length" j in
  let* tr_chunks = Json.int_field "chunks" j in
  let* tr_bytes = Json.int_field "bytes" j in
  let* tr_record_seconds = Json.float_field "record_seconds" j in
  let* tr_replay_seconds = Json.float_field "replay_seconds" j in
  Ok
    { tr_executions;
      tr_length;
      tr_chunks;
      tr_bytes;
      tr_record_seconds;
      tr_replay_seconds }

let sim_of_json j =
  let* sim_label = Json.str_field "label" j in
  let* sim_machine = Json.str_field "machine" j in
  let* sim_quality = Json.str_field "quality" j in
  let* sim_flops = Json.int_field "flops" j in
  let* sim_instances = Json.int_field "instances" j in
  let* sim_accesses = Json.int_field "accesses" j in
  let* ls = Json.list_field "levels" j in
  let* levels =
    List.fold_left
      (fun acc l ->
        let* acc = acc in
        let* lv = level_of_json l in
        Ok (lv :: acc))
      (Ok []) ls
    |> Result.map List.rev
  in
  let* sim_cycles = Json.float_field "cycles" j in
  let* sim_mflops = Json.float_field "mflops" j in
  let* sim_seconds = Json.float_field "seconds" j in
  let* sim_trace =
    match Json.member "trace" j with
    | None -> Ok None
    | Some t -> Result.map Option.some (trace_info_of_json t)
  in
  Ok
    { sim_label;
      sim_machine;
      sim_quality;
      sim_flops;
      sim_instances;
      sim_accesses;
      sim_levels = levels;
      sim_cycles;
      sim_mflops;
      sim_seconds;
      sim_trace }

(* ------------------------------------------------------------------ *)
(* Solver-context statistics                                           *)
(* ------------------------------------------------------------------ *)

type solver = {
  so_queries : int;
  so_splinters : int;
  so_fuel_spent : int;
  so_unknowns : int;
  so_cache_hits : int;
  so_cache_misses : int;
  so_backing_hits : int;
  so_cache_size : int;
  so_cache_enabled : bool;
}

let solver_of_ctx c =
  let module Ctx = Polyhedra.Omega.Ctx in
  { so_queries = Ctx.queries c;
    so_splinters = Ctx.splinters c;
    so_fuel_spent = Ctx.fuel_spent c;
    so_unknowns = Ctx.unknowns c;
    so_cache_hits = Ctx.cache_hits c;
    so_cache_misses = Ctx.cache_misses c;
    so_backing_hits = Ctx.backing_hits c;
    so_cache_size = Ctx.cache_size c;
    so_cache_enabled = Ctx.cache_enabled c }

let solver_solves s = s.so_queries - s.so_cache_hits - s.so_backing_hits

let solver_to_json s =
  Json.Obj
    [ ("queries", Json.Int s.so_queries);
      ("splinters", Json.Int s.so_splinters);
      ("fuel_spent", Json.Int s.so_fuel_spent);
      ("unknowns", Json.Int s.so_unknowns);
      ("cache_hits", Json.Int s.so_cache_hits);
      ("cache_misses", Json.Int s.so_cache_misses);
      ("backing_hits", Json.Int s.so_backing_hits);
      ("cache_size", Json.Int s.so_cache_size);
      ("cache_enabled", Json.Bool s.so_cache_enabled) ]

let solver_of_json j =
  let* so_queries = Json.int_field "queries" j in
  let* so_splinters = Json.int_field "splinters" j in
  let* so_fuel_spent = Json.int_field "fuel_spent" j in
  let* so_unknowns = Json.int_field "unknowns" j in
  let* so_cache_hits = Json.int_field "cache_hits" j in
  let* so_cache_misses = Json.int_field "cache_misses" j in
  let* so_backing_hits = Json.int_field "backing_hits" j in
  let* so_cache_size = Json.int_field "cache_size" j in
  let* so_cache_enabled = Json.bool_field "cache_enabled" j in
  Ok
    { so_queries;
      so_splinters;
      so_fuel_spent;
      so_unknowns;
      so_cache_hits;
      so_cache_misses;
      so_backing_hits;
      so_cache_size;
      so_cache_enabled }

(* ------------------------------------------------------------------ *)
(* Disk-cache metrics                                                  *)
(* ------------------------------------------------------------------ *)

type diskcache = {
  dc_entries : int;
  dc_bytes : int;
  dc_hits : int;
  dc_misses : int;
  dc_appended : int;
  dc_dropped : int;
}

let diskcache_to_json d =
  Json.Obj
    [ ("entries", Json.Int d.dc_entries);
      ("bytes", Json.Int d.dc_bytes);
      ("hits", Json.Int d.dc_hits);
      ("misses", Json.Int d.dc_misses);
      ("appended", Json.Int d.dc_appended);
      ("dropped_bytes", Json.Int d.dc_dropped) ]

let diskcache_of_json j =
  let* dc_entries = Json.int_field "entries" j in
  let* dc_bytes = Json.int_field "bytes" j in
  let* dc_hits = Json.int_field "hits" j in
  let* dc_misses = Json.int_field "misses" j in
  let* dc_appended = Json.int_field "appended" j in
  let* dc_dropped = Json.int_field "dropped_bytes" j in
  Ok { dc_entries; dc_bytes; dc_hits; dc_misses; dc_appended; dc_dropped }

(* ------------------------------------------------------------------ *)
(* Wall clock                                                          *)
(* ------------------------------------------------------------------ *)

let now_s () = Unix.gettimeofday ()

let timed f =
  let t0 = now_s () in
  let y = f () in
  (y, now_s () -. t0)

(* ------------------------------------------------------------------ *)
(* Domain-local collection                                             *)
(* ------------------------------------------------------------------ *)

(* [None] = no collect in flight in this domain, so [record] is a no-op.
   Domain-local storage keeps concurrently running tasks from ever
   touching each other's collections. *)
let collector : sim list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let record s =
  match Domain.DLS.get collector with
  | None -> ()
  | Some r -> r := s :: !r

let collect f =
  let saved = Domain.DLS.get collector in
  let fresh = ref [] in
  Domain.DLS.set collector (Some fresh);
  match f () with
  | y ->
    Domain.DLS.set collector saved;
    (y, List.rev !fresh)
  | exception e ->
    Domain.DLS.set collector saved;
    raise e

(* ------------------------------------------------------------------ *)
(* Record once, replay per series                                      *)
(* ------------------------------------------------------------------ *)

let record_replay run series =
  Runner.check ();
  let recording, record_seconds = timed run in
  let tr = recording.Model.rec_trace in
  List.mapi
    (fun i (label, (machine : Model.t), (quality : Model.quality)) ->
      Runner.check ();
      let r, replay_seconds =
        timed (fun () -> Model.consume ~machine ~quality recording)
      in
      (* the recording is charged to the first row; later rows reused the
         trace for free *)
      let record_seconds = if i = 0 then record_seconds else 0.0 in
      let trace =
        { tr_executions = (if i = 0 then 1 else 0);
          tr_length = Trace.length tr;
          tr_chunks = Trace.num_chunks tr;
          tr_bytes = Trace.bytes tr;
          tr_record_seconds = record_seconds;
          tr_replay_seconds = replay_seconds }
      in
      record
        (of_result ~label ~machine:machine.Model.m_name
           ~quality:quality.Model.q_name
           ~seconds:(record_seconds +. replay_seconds)
           ~trace r);
      r)
    series
