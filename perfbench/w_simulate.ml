(* simulate: each op is one paper-figure point.  It records one blocked or
   unblocked variant once (Pipeline.record) and replays the recording on
   the paper's three series (Pipeline.consume): sp2-like untuned, sp2-like
   tuned and two-level untuned.  Codegen and specialization happen in
   set-up, as in Figures, so no Omega query runs in the timed region. *)

module Model = Machine.Model
module Ctx = Polyhedra.Omega.Ctx

type entry = {
  label : string;
  kernel : string;
  spec : (string * int) option;  (** registry spec name, block size *)
  n : int;
}

(* Sizes straddle the caches: the matmul, Cholesky, syrk and gmtry working
   sets (up to 51 KB) fit the sp2-like 64 KB L1 and most spill the
   two-level 16 KB L1; ADI at N=96 (221 KB) spills the 64 KB L1, and at
   N=120 (345 KB) the two-level 256 KB L2 as well.  The 15 entries fall
   in three cost tiers (about 15-28, 33-39 and 53-57 ms), so p50 (the
   8th) and p90 (the 14th) each sit inside a tier, never at a gap between
   two.  Traces stay under 360K words, so an op's CPU time leans little on
   how busy the host's memory system is. *)
let entries =
  let e ?spec kernel n =
    let label =
      match spec with
      | None -> Printf.sprintf "%s/-/N=%d" kernel n
      | Some (s, b) -> Printf.sprintf "%s/%s:%d/N=%d" kernel s b n
    in
    { label; kernel; spec; n }
  in
  [| e "adi" ~spec:("fused", 1) 96;
     e "matmul" 32;
     e "matmul" ~spec:("ca", 16) 32;
     e "qr" ~spec:("columns", 8) 40;
     e "cholesky_right" 64;
     e "adi" 120;
     e "syrk" 48;
     e "gmtry" 56;
     e "gmtry" ~spec:("write", 16) 56;
     e "matmul" 40;
     e "matmul" ~spec:("ca", 8) 40;
     e "matmul" ~spec:("two-level", 16) 40;
     e "cholesky_right" 80;
     e "cholesky_right" ~spec:("full", 16) 76;
     e "cholesky_banded" ~spec:("write", 16) 126 |]

let series =
  [ (Model.sp2_like, Model.untuned);
    (Model.sp2_like, Model.tuned);
    (Model.two_level, Model.untuned) ]

type ready = {
  entry : entry;
  source : Pipeline.t;  (** the kernel; its solver ran codegen *)
  exec : Pipeline.t;  (** the specialized variant, ready to record *)
  params : (string * int) list;
  init : string -> int array -> float;
}

(* Kernel construction, codegen and N-specialization of every variant. *)
let setup ?rec_ () =
  Array.map
    (fun entry ->
      let span name f = Span.maybe rec_ ~name ~op:(-1) f in
      let source = Pipeline.create (Bench.kernel entry.kernel) in
      let params = Bench.params ~kernel:entry.kernel ~n:entry.n in
      let spec =
        Option.map
          (fun (spec, size) -> Bench.lookup ~kernel:entry.kernel ~spec ~size)
          entry.spec
      in
      Option.iter
        (fun spec -> ignore (span "codegen" (fun () -> Pipeline.codegen_cached source spec)))
        spec;
      let prog = span "specialize" (fun () -> Pipeline.specialize ?spec source ~params) in
      { entry;
        source;
        exec = Pipeline.create prog;
        params;
        init = Bench.init ~kernel:entry.kernel ~n:entry.n })
    entries

type out = { words : int; flops : int; results : Model.result list }

let simulate ?rec_ ~op r =
  let span name f = Span.maybe rec_ ~name ~op f in
  span "op" (fun () ->
      let recording =
        span "record" (fun () -> Pipeline.record r.exec ~params:r.params ~init:r.init)
      in
      let results =
        List.map
          (fun (machine, quality) ->
            span ("replay." ^ machine.Model.m_name) (fun () ->
                Pipeline.consume ~machine ~quality recording))
          series
      in
      { words = Trace.length recording.Model.rec_trace;
        flops = recording.Model.rec_flops;
        results })

let row o =
  ("words", Expected.int o.words)
  :: ("flops", Expected.int o.flops)
  :: List.concat
       (List.mapi
          (fun i (r : Model.result) ->
            [ (Printf.sprintf "s%d.accesses" i, Expected.int r.Model.r_accesses);
              (Printf.sprintf "s%d.cycles" i, Expected.float r.Model.r_cycles);
              ( Printf.sprintf "s%d.misses" i,
                String.concat ","
                  (List.map (fun l -> Expected.int l.Model.s_misses) r.r_levels) ) ])
          o.results)

let solver_queries ready =
  Array.fold_left
    (fun acc r -> acc + Ctx.queries (Pipeline.solver r.source) + Ctx.queries (Pipeline.solver r.exec))
    0 ready

let layers ~spans ~(region : Bench.region) ~outs =
  let tbl = Span.by_name spans in
  let ops = float_of_int (List.length region.samples) in
  let per_call = Layers.per_call tbl in
  let self name = match Hashtbl.find_opt tbl name with Some l -> l.Span.self_s | None -> 0.0 in
  let words = List.fold_left (fun acc o -> acc +. float_of_int o.words) 0.0 outs in
  (* accesses replayed per machine, and first-level hits over all series *)
  let machine_accesses name =
    List.fold_left
      (fun acc o ->
        List.fold_left2
          (fun acc (m, _) (r : Model.result) ->
            if String.equal m.Model.m_name name then acc +. float_of_int r.Model.r_accesses
            else acc)
          acc series o.results)
      0.0 outs
  in
  let l1 f =
    List.fold_left
      (fun acc o ->
        List.fold_left
          (fun acc (r : Model.result) ->
            match r.Model.r_levels with l :: _ -> acc +. float_of_int (f l) | [] -> acc)
          acc o.results)
      0.0 outs
  in
  let sp2 = machine_accesses "sp2-like" and two = machine_accesses "two-level" in
  let replay_calls =
    Layers.calls tbl "replay.sp2-like" + Layers.calls tbl "replay.two-level"
  in
  let replay_self = self "replay.sp2-like" +. self "replay.two-level" in
  [ ("codegen.self_s", per_call "codegen");
    ("specialize.self_s", per_call "specialize");
    ("record.self_s", per_call "record");
    ("record.words", words /. ops);
    ("record.words_per_s", Layers.ratio words (self "record"));
    ("replay.self_s", Layers.ratio replay_self (float_of_int replay_calls));
    ("replay.accesses", (sp2 +. two) /. ops);
    ("replay.sp2-like.accesses_per_s", Layers.ratio sp2 (self "replay.sp2-like"));
    ("replay.two-level.accesses_per_s", Layers.ratio two (self "replay.two-level"));
    ( "replay.l1_hit_frac",
      Layers.ratio (l1 (fun l -> l.Model.s_hits)) (l1 (fun l -> l.Model.s_accesses)) ) ]
  @ Layers.gc region

let run ~seed ~seconds ~trace =
  let tbl = Expected.load "simulate" in
  let setup_s, ready = Bench.setup_reps (fun () -> setup ()) in
  let deal index = Deck.pass ~seed ~index ~vary:(fun _ r -> r) ready in
  let outs = ref [] in
  let check r o =
    outs := o :: !outs;
    Expected.check tbl ~what:"simulate" ~key:r.entry.label (row o)
  in
  let region ?rec_ seconds =
    Bench.run_passes ~seconds ~deal
      ~op:(fun ~pass ~index r -> simulate ?rec_ ~op:((pass * 1000) + index) r)
      ~check ()
  in
  let q0 = solver_queries ready in
  let untraced = region (if trace then seconds /. 2.0 else seconds) in
  let queries = solver_queries ready - q0 in
  let traced =
    if trace then begin
      let r = Span.recorder () in
      ignore (setup ~rec_:r ());
      outs := [];
      let reg = region ~rec_:r (seconds /. 2.0) in
      Some (Span.spans r, reg)
    end
    else None
  in
  let checks =
    if queries = 0 then []
    else [ Printf.sprintf "simulate: %d Omega queries in the timed region (expected 0)" queries ]
  in
  let layers, spans =
    match traced with
    | None -> ([], [])
    | Some (spans, reg) -> (layers ~spans ~region:reg ~outs:!outs, spans)
  in
  { Bench.setup_s;
    region = untraced;
    traced = Option.map snd traced;
    peak_rss_mb = Bench.peak_rss_mb ();
    checks;
    evidence = [ ("omega queries in the timed region", string_of_int queries) ];
    layers;
    spans }

let regen () =
  let ready = setup () in
  Expected.save "simulate"
    ~header:
      [ "simulate: per deck entry, the recorded trace words and flops, and per";
        "series (s0 sp2-like untuned, s1 sp2-like tuned, s2 two-level untuned)";
        "the replayed accesses, the simulated cycles (hexadecimal float) and";
        "the misses per cache level." ]
    (Array.to_list (Array.map (fun r -> (r.entry.label, row (simulate ~op:0 r))) ready))
