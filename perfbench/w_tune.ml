(* tune: each op is one Tune.tune call on a fresh pipeline with the
   daemon's options (Tune.default_options at one block size: sp2-like
   untuned, one domain).  The heaviest request the daemon serves, and the
   only workload that runs Bounds and the tune ranking; it also uses the
   shared layers differently (the legality memo answers about half the
   queries, codegen runs once per candidate, traces are short). *)

module Model = Machine.Model

type entry = { kernel : string; n : int }

let block = 8

(* The kernels with a legal candidate, at N=16 and most again at N=24,
   plus gmtry at N=20.  13 entries whose costs leave p50 (the 7th) and
   p80 (the 11th, the tail this run length supports) each inside a run of
   entries within ~5% of each other, never at a gap between cost classes
   (matmul and syrk cost ~0.2 s, gmtry ~0.27 s, the Cholesky kernels
   ~0.4 s). *)
let entries =
  let at n = List.map (fun kernel -> { kernel; n }) in
  Array.of_list
    (at 16
       [ "matmul"; "syrk"; "cholesky_right"; "cholesky_left"; "cholesky_banded";
         "gmtry"; "adi" ]
    @ at 20 [ "gmtry" ]
    @ at 24 [ "matmul"; "syrk"; "cholesky_right"; "cholesky_left"; "gmtry" ])

let label e = Printf.sprintf "%s/N=%d" e.kernel e.n

type ready = { entry : entry; prog : Loopir.Ast.program; params : (string * int) list }

(* Kernel construction. *)
let setup () =
  Array.map
    (fun entry ->
      { entry;
        prog = Bench.kernel entry.kernel;
        params = Bench.params ~kernel:entry.kernel ~n:entry.n })
    entries

let options = { Tune.default_options with Tune.sizes = [ block ]; domains = 1 }

let tune ?rec_ ~op r =
  Span.maybe rec_ ~name:"tune" ~op (fun () ->
      Tune.tune ~options
        ~init:(Bench.init ~kernel:r.entry.kernel ~n:r.entry.n)
        ~kernel:r.entry.kernel ~params:r.params r.prog)

(* The machine's hierarchy in Bounds units, as the tuner builds it. *)
let levels (m : Model.t) =
  match m.Model.levels with
  | [] -> []
  | l0 :: _ ->
    Bounds.levels_of
      ~line_elems:(max 1 (l0.Model.l_cache.Machine.Cache.line_bytes / m.Model.elem_bytes))
      (List.map
         (fun (l : Model.level_spec) ->
           (l.Model.l_name, l.Model.l_cache.Machine.Cache.size_bytes / m.Model.elem_bytes))
         m.Model.levels)

(* Bounds runs inside Tune.tune, where it cannot be timed from outside, so
   the traced run analyzes every reported candidate again, as its own
   span, and checks the result against the report's bounds. *)
let bounds ~rec_ ~op r (report : Tune.report) =
  List.filter_map
    (fun (s : Tune.scored) ->
      let got =
        Span.record rec_ ~name:"bounds" ~op (fun () ->
            match Bounds.analyze ~spec:s.Tune.s_cand.Tune.c_spec ~params:r.params r.prog with
            | exception (Loopir.Domain.Not_affine _ | Failure _) -> []
            | t ->
              List.map
                (fun (m : Model.t) ->
                  (m.Model.m_name, List.map (fun lv -> (lv.Bounds.lv_name, Bounds.misses t lv)) (levels m)))
                options.Tune.machines)
      in
      if got = s.Tune.s_bounds then None
      else Some (Printf.sprintf "tune %s: re-analyzed bounds of %s differ from the report" (label r.entry) s.s_cand.c_label))
    report.Tune.rp_table

let row (report : Tune.report) =
  let c = report.Tune.rp_counts in
  let best, cycles =
    match Tune.best report with
    | Some s -> (Expected.text s.Tune.s_cand.Tune.c_label, Expected.float s.s_cycles)
    | None -> ("none", "none")
  in
  [ ("best", best);
    ("cycles", cycles);
    ("enumerated", Expected.int c.Tune.n_enumerated);
    ("legal", Expected.int c.n_legal);
    ("illegal", Expected.int c.n_illegal);
    ("variants", Expected.int c.n_variants);
    ("failures", Expected.int (List.length report.rp_failures)) ]

let layers ~spans ~(region : Bench.region) ~reports =
  let tbl = Span.by_name spans in
  let ops = float_of_int (List.length region.samples) in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 reports in
  let count f = total (fun r -> float_of_int (f r.Tune.rp_counts)) in
  let solver f = total (fun r -> float_of_int (f r.Tune.rp_solver)) in
  let timing f = total (fun r -> f r.Tune.rp_timing) /. ops in
  let module M = Observe.Metrics in
  [ ("tune.self_s", Layers.per_call tbl "tune");
    ("tune.enumerated", count (fun c -> c.Tune.n_enumerated) /. ops);
    ("tune.legal_frac", Layers.ratio (count (fun c -> c.Tune.n_legal)) (count (fun c -> c.Tune.n_enumerated)));
    ("tune.variants_per_legal", Layers.ratio (count (fun c -> c.Tune.n_variants)) (count (fun c -> c.Tune.n_legal)));
    ("tune.enumerate_s", timing (fun t -> t.Tune.t_enumerate));
    ("tune.codegen_s", timing (fun t -> t.Tune.t_codegen));
    ("tune.evaluate_s", timing (fun t -> t.Tune.t_evaluate));
    ("bounds.self_s", Layers.per_call tbl "bounds");
    ("bounds.calls", float_of_int (Layers.calls tbl "bounds") /. ops);
    ("omega.queries", solver (fun s -> s.M.so_queries) /. ops);
    ("omega.fuel", solver (fun s -> s.M.so_fuel_spent) /. ops);
    ("omega.splinters", solver (fun s -> s.M.so_splinters) /. ops);
    ("omega.memo_hit_frac", Layers.ratio (solver (fun s -> s.M.so_cache_hits)) (solver (fun s -> s.M.so_queries))) ]
  @ Layers.gc region

let run ~seed ~seconds ~trace =
  let tbl = Expected.load "tune" in
  let setup_s, ready = Bench.setup_reps setup in
  let deal index = Deck.pass ~seed ~index ~vary:(fun _ r -> r) ready in
  let check r report = Expected.check tbl ~what:"tune" ~key:(label r.entry) (row report) in
  let untraced =
    Bench.run_passes ~seconds:(if trace then seconds /. 2.0 else seconds) ~deal
      ~op:(fun ~pass ~index r -> tune ~op:((pass * 1000) + index) r)
      ~check ()
  in
  let traced =
    if trace then begin
      let rec_ = Span.recorder () in
      let reports = ref [] and bound_errors = ref [] in
      (* the bounds re-analysis runs in [check], outside the op's time, so
         it does not count as tracing overhead *)
      let check r report =
        bound_errors := bounds ~rec_ ~op:(-1) r report @ !bound_errors;
        reports := report :: !reports;
        check r report
      in
      let reg =
        Bench.run_passes ~seconds:(seconds /. 2.0) ~deal
          ~op:(fun ~pass ~index r -> tune ~rec_ ~op:((pass * 1000) + index) r)
          ~check ()
      in
      Some (Span.spans rec_, reg, !reports, !bound_errors)
    end
    else None
  in
  let layers, spans, checks =
    match traced with
    | None -> ([], [], [])
    | Some (spans, reg, reports, errs) -> (layers ~spans ~region:reg ~reports, spans, errs)
  in
  { Bench.setup_s;
    region = untraced;
    traced = Option.map (fun (_, reg, _, _) -> reg) traced;
    peak_rss_mb = Bench.peak_rss_mb ();
    checks;
    evidence = [];
    layers;
    spans }

let regen () =
  Expected.save "tune"
    ~header:
      [ "tune: per deck entry (kernel, N), the winning candidate (spaces as '_'),";
        "its simulated cycles (hexadecimal float) and the report's counts." ]
    (Array.to_list (Array.map (fun r -> (label r.entry, row (tune ~op:0 r))) (setup ())))
