(* The shackle autotuner (Section 8: "implement a search method that
   enumerates over plausible data shackles, evaluates each one and picks
   the best"), built on the unified {!Pipeline} front door.

   The candidate lattice is: one data-centric reference per statement
   (Section 6.1's choices) x cutting-plane block sizes x Cartesian-product
   depth.  Products are grown only along Theorem 2's gradient — a factor is
   appended only when it strictly shrinks the set of unconstrained
   references — and every candidate passes the Theorem 1 legality test
   through one memoizing solver context, so the many systems that product
   candidates share with their factors are decided once.

   Evaluation is record-once / replay-many: candidates whose generated
   programs coincide share a single interpreter execution, and each
   recording is replayed per (machine x quality) on a fresh simulator.
   Only the simulation fans out over domains; enumeration, legality and
   code generation run sequentially, so every reported quantity except
   wall-clock is independent of [domains]. *)

module Ast = Loopir.Ast
module Expr = Loopir.Expr
module Fexpr = Loopir.Fexpr
module Spec = Shackle.Spec
module Blocking = Shackle.Blocking
module Legality = Shackle.Legality
module Span = Shackle.Span
module Search = Shackle.Search
module Model = Machine.Model
module Metrics = Observe.Metrics
module Json = Observe.Json
module Omega = Polyhedra.Omega

(* ------------------------------------------------------------------ *)
(* Options                                                             *)
(* ------------------------------------------------------------------ *)

type options = {
  sizes : int list;
  depth : int;
  domains : int;
  machines : Model.t list;
  qualities : Model.quality list;
  cache_compare : bool;
  shuffle_seed : int option;
  timeout_ms : int option;
  fuel : int option;
  ns : int list;
      (** evaluation problem sizes: [[]] (default) evaluates at the
          caller's [params] only; a non-empty list sweeps N over these
          values, re-using each candidate's one generated program and
          ranking by summed cycles.  Enumeration, legality and codegen run
          once regardless of the sweep's length — the per-size work is the
          solver-free {!Loopir.Stages.specialize}. *)
  prune_bounds : bool;
      (** evaluate candidates sequentially, best-first by their analytic
          communication lower bound ({!Bounds}), and skip any candidate
          whose lower-bounded cycle cost already exceeds the incumbent's
          simulated cycles.  Sound for the winner: the bound never
          exceeds the simulated cost, so a pruned candidate could not
          have ranked first.  Default off (the default path evaluates
          the whole lattice in parallel). *)
}

let default_options =
  { sizes = [ 16 ];
    depth = 2;
    domains = 1;
    machines = [ Model.sp2_like ];
    qualities = [ Model.untuned ];
    cache_compare = false;
    shuffle_seed = None;
    timeout_ms = None;
    fuel = None;
    ns = [];
    prune_bounds = false }

(* ------------------------------------------------------------------ *)
(* Candidates                                                          *)
(* ------------------------------------------------------------------ *)

type candidate = {
  c_spec : Spec.t;
  c_label : string;
  c_factors : int;
  c_unconstrained : int;
  c_fully_constrained : bool;
}

(* Canonical compact rendering of a spec; doubles as the dedup key and the
   deterministic ranking tie-break, so it must be injective on the lattice
   (it spells out every plane and every choice). *)
let ref_label (r : Fexpr.ref_) =
  Printf.sprintf "%s(%s)" r.Fexpr.array
    (String.concat "," (List.map Expr.to_string r.Fexpr.idx))

let plane_label (p : Blocking.plane) =
  Printf.sprintf "%s/%d%s"
    (String.concat "," (List.map string_of_int p.Blocking.normal))
    p.Blocking.width
    (if p.Blocking.offset = 0 then ""
     else Printf.sprintf "+%d" p.Blocking.offset)

let factor_label (f : Spec.factor) =
  let b = f.Spec.blocking in
  Printf.sprintf "%s[%s]{%s}" b.Blocking.array
    (String.concat ";" (List.map plane_label b.Blocking.planes))
    (String.concat ";"
       (List.map (fun (s, r) -> s ^ ":" ^ ref_label r) f.Spec.choices))

let spec_label (spec : Spec.t) =
  String.concat " x " (List.map factor_label spec)

let candidate prog spec =
  let unconstrained = List.length (Span.unconstrained_refs prog spec) in
  { c_spec = spec;
    c_label = spec_label spec;
    c_factors = List.length spec;
    c_unconstrained = unconstrained;
    c_fully_constrained = unconstrained = 0 }

(* ------------------------------------------------------------------ *)
(* Enumeration                                                         *)
(* ------------------------------------------------------------------ *)

(* Single-factor specs: square blocks_2d blockings of each candidate array
   at each size, one per way of choosing a data-centric reference per
   statement. *)
let raw_singles prog ~arrays ~sizes =
  List.concat_map
    (fun array ->
      let choice_sets = Legality.enumerate_choices prog ~array in
      List.concat_map
        (fun size ->
          List.map
            (fun choices ->
              [ Spec.factor (Blocking.blocks_2d ~array ~size) choices ])
            choice_sets)
        sizes)
    arrays

type counts = {
  n_enumerated : int;
  n_pruned : int;
  n_illegal : int;
  n_unknown : int;
  n_legal : int;
  n_variants : int;
  n_pruned_by_bound : int;
      (** legal candidates skipped by the analytic lower-bound pruner
          (zero unless [options.prune_bounds]) *)
}

(* Grow the lattice level by level.  Products of legal factors are legal
   (Section 6), but extensions are still pushed through [Pipeline.probe]:
   the per-factor fast path of [Legality.check_deps] re-decides the factors'
   systems, which is exactly where the memoizing context earns its keep.
   Under a fuel or wall-clock budget the probe can come back [Unknown];
   such a candidate is dropped like an illegal one (conservative) but
   counted separately, so a starved run is visible in the report. *)
let enumerate pipe opts ~arrays =
  let prog = Pipeline.program pipe in
  let enumerated = ref 0 and pruned = ref 0 in
  let illegal = ref 0 and unknown = ref 0 in
  let seen = Hashtbl.create 64 in
  let pruned_seen = Hashtbl.create 64 in
  let legal_of specs =
    List.filter_map
      (fun spec ->
        let c = candidate prog spec in
        if Hashtbl.mem seen c.c_label then None
        else begin
          Hashtbl.add seen c.c_label ();
          incr enumerated;
          match Pipeline.probe pipe spec with
          | Shackle.Verdict.Legal -> Some c
          | Shackle.Verdict.Illegal _ ->
            incr illegal;
            None
          | Shackle.Verdict.Unknown _ ->
            incr unknown;
            None
        end)
      specs
  in
  let singles = legal_of (raw_singles prog ~arrays ~sizes:opts.sizes) in
  let all = ref singles in
  let frontier = ref singles in
  for _level = 2 to opts.depth do
    let extensions =
      List.concat_map
        (fun c ->
          if c.c_fully_constrained then []
          else
            List.filter_map
              (fun s ->
                let p = Spec.product c.c_spec s.c_spec in
                let pc = candidate prog p in
                (* Theorem 2 as the growth rule: keep the extension only if
                   it strictly shrinks the unconstrained-reference set *)
                if pc.c_unconstrained >= c.c_unconstrained then begin
                  if
                    (not (Hashtbl.mem seen pc.c_label))
                    && not (Hashtbl.mem pruned_seen pc.c_label)
                  then begin
                    Hashtbl.add pruned_seen pc.c_label ();
                    incr pruned
                  end;
                  None
                end
                else Some p)
              singles)
        !frontier
    in
    let fresh = legal_of extensions in
    all := !all @ fresh;
    frontier := fresh
  done;
  (!all, !enumerated, !pruned, !illegal, !unknown)

(* Deterministic Fisher-Yates over a seeded xorshift64 — used only to check
   that the ranking is independent of candidate order. *)
let shuffle seed xs =
  let a = Array.of_list xs in
  let s = ref (Int64.of_int (succ (abs seed))) in
  let next () =
    let x = !s in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    s := x;
    Int64.to_int (Int64.logand x 0x3FFFFFFFL)
  in
  for i = Array.length a - 1 downto 1 do
    let j = next () mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Analytic lower bounds                                               *)
(* ------------------------------------------------------------------ *)

(* A machine's hierarchy in {!Bounds} units: cumulative element
   capacities, one shared line size (true of both reference machines). *)
let machine_levels (m : Model.t) =
  match m.Model.levels with
  | [] -> []
  | l0 :: _ ->
    Bounds.levels_of
      ~line_elems:
        (max 1 (l0.Model.l_cache.Machine.Cache.line_bytes / m.Model.elem_bytes))
      (List.map
         (fun (l : Model.level_spec) ->
           ( l.Model.l_name,
             l.Model.l_cache.Machine.Cache.size_bytes / m.Model.elem_bytes ))
         m.Model.levels)

(* Per-machine per-level miss lower bounds of one candidate, or [None]
   when the program or spec falls outside the affine class the analysis
   covers (such candidates are reported without bounds and never
   pruned). *)
let bounds_for prog ~params ~machines spec =
  match Bounds.analyze ~spec ~params prog with
  | exception (Loopir.Domain.Not_affine _ | Failure _) -> None
  | t ->
    Some
      ( t,
        List.map
          (fun (m : Model.t) ->
            ( m.Model.m_name,
              List.map
                (fun lv -> (lv.Bounds.lv_name, Bounds.misses t lv))
                (machine_levels m) ))
          machines )

(* The simulator's closed-form cost is
     cycles = F*fc + I*ov + A*h1
              + sum_{l<K} m_l*(h_{l+1} - h_l) + m_K*(mem - h_K)
   (accesses reaching level l+1 are exactly the level-l misses).  Every
   per-level coefficient is nonnegative on a sane machine — costs grow
   outward — so substituting lower bounds for each m_l keeps this a lower
   bound.  F and I are candidate-invariant (every legal candidate executes
   the same statement instances, and guards touch no memory), so the
   incumbent's measured values serve; A is likewise invariant without
   forwarding, while with forwarding each distinct element still probes L1
   at least once, so the analytic distinct-data bound stands in.  All
   arithmetic is exact: the cost constants are dyadic, so [Ratio.of_float]
   loses nothing. *)
let cycle_lower_bound ~(machine : Model.t) ~(quality : Model.quality)
    ~(inc : Model.result) ~bounds ~distinct =
  let q = Ratio.of_float in
  let acc =
    ref
      (Ratio.add
         (Ratio.mul (Ratio.of_int inc.Model.r_flops) (q machine.Model.flop_cycles))
         (Ratio.mul (Ratio.of_int inc.Model.r_instances) (q quality.Model.overhead)))
  in
  let probes =
    if quality.Model.forwarding then distinct else inc.Model.r_accesses
  in
  (match machine.Model.levels with
  | [] -> ()
  | l1 :: _ ->
    acc := Ratio.add !acc (Ratio.mul (Ratio.of_int probes) (q l1.Model.l_hit_cycles)));
  let rec go levels bounds =
    match (levels, bounds) with
    | (l : Model.level_spec) :: rest, b :: bs ->
      let next_cost =
        match rest with
        | (nl : Model.level_spec) :: _ -> nl.Model.l_hit_cycles
        | [] -> machine.Model.mem_cycles
      in
      let coef = Ratio.sub (q next_cost) (q l.Model.l_hit_cycles) in
      if Ratio.compare coef Ratio.zero > 0 then
        acc := Ratio.add !acc (Ratio.mul (Ratio.of_int b) coef);
      go rest bs
    | _, _ -> ()
  in
  go machine.Model.levels (List.map snd bounds);
  !acc

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

type scored = {
  s_cand : candidate;
  s_results : (string * string * Model.result) list;
      (** (machine, quality, result) per evaluated series, at the first
          evaluated size *)
  s_sweep : (int option * float) list;
      (** head-series cycles per evaluated size ([None] = the caller's
          [params]); singleton unless [options.ns] sweeps *)
  s_cycles : float;
  s_mflops : float;
  s_bounds : (string * (string * int) list) list;
      (** per machine, per cache level: the analytic miss lower bound of
          this candidate at the first evaluated size ([] when the
          program is outside the affine class {!Bounds} handles) *)
}

(* One recording group that crashed or timed out under supervision: its
   candidates are excluded from the ranked table, the campaign completes. *)
type eval_failure = {
  ef_label : string;  (* canonical label of the group's head candidate *)
  ef_reason : string;
}

(* Rank by simulated cycles on the head (machine, quality) series.  Ties
   (common: a product can generate the same program as one of its factors)
   break toward fewer unconstrained references — Theorem 2 as the ranking
   signal, Section 8 — then fewer factors, then the canonical label, so
   the table is deterministic and stable under candidate shuffling. *)
let rank_key s =
  (s.s_cycles, s.s_cand.c_unconstrained, s.s_cand.c_factors, s.s_cand.c_label)

let rank scored =
  List.stable_sort (fun a b -> compare (rank_key a) (rank_key b)) scored

(* Build a row from one candidate's per-size evaluation results; bounds
   are attached later, uniformly for every surviving row. *)
let scored_of_per_size c per_size =
  let head results =
    match results with (_, _, r) :: _ -> r | [] -> assert false
  in
  let sweep =
    List.map (fun (n, results) -> (n, (head results).Model.r_cycles)) per_size
  in
  let first =
    match per_size with (_, results) :: _ -> head results | [] -> assert false
  in
  { s_cand = c;
    s_results = (match per_size with (_, r) :: _ -> r | [] -> []);
    s_sweep = sweep;
    s_cycles = List.fold_left (fun a (_, c) -> a +. c) 0.0 sweep;
    s_mflops = first.Model.r_mflops;
    s_bounds = [] }

(* The evaluation series, machines x qualities; the head is the ranking
   series. *)
let series_of opts =
  List.concat_map
    (fun m -> List.map (fun q -> (m, q)) opts.qualities)
    opts.machines

(* Record [prog] at one sweep point (n, params, init), instantiated at the
   point's concrete sizes by the solver-free specializer: the trace is
   bit-identical to the symbolic program's, only interpretation is
   faster.  Specialization is charged to the recording. *)
let record_at (_, params, init) prog =
  Model.record (Loopir.Stages.specialize ~params prog) ~params ~init

(* The one evaluation body, shared by both paths.  Each group is (label of
   its head candidate, generated program); at every sweep point the
   program is recorded once and replayed per (machine x quality) series,
   with one metrics row per series.  Groups fan out over the supervised
   pool: one that crashes or blows past [opts.timeout_ms] comes back as
   an {!eval_failure} instead of aborting the campaign.  The worker polls
   its token before each recording and each replay, so a timeout is
   observed cooperatively at series granularity. *)
let evaluate_groups opts ~sweeps groups =
  let series = series_of opts in
  let outcomes =
    Runner.map_outcomes ~domains:opts.domains ?timeout_ms:opts.timeout_ms
      (fun token (label, prog_v) ->
        Metrics.collect (fun () ->
            List.map
              (fun ((n, _, _) as point) ->
                Runner.Token.check token;
                let label_n =
                  match n with
                  | None -> label
                  | Some n -> Printf.sprintf "%s/N=%d" label n
                in
                let recording, record_seconds =
                  Metrics.timed (fun () -> record_at point prog_v)
                in
                let tr = recording.Model.rec_trace in
                ( n,
                  List.mapi
                    (fun i (m, q) ->
                      Runner.Token.check token;
                      let r, replay_seconds =
                        Metrics.timed (fun () ->
                            Model.consume ~machine:m ~quality:q recording)
                      in
                      let first = i = 0 in
                      let trace =
                        { Metrics.tr_executions = (if first then 1 else 0);
                          tr_length = Trace.length tr;
                          tr_chunks = Trace.num_chunks tr;
                          tr_bytes = Trace.bytes tr;
                          tr_record_seconds =
                            (if first then record_seconds else 0.0);
                          tr_replay_seconds = replay_seconds }
                      in
                      Metrics.record
                        (Metrics.of_result ~label:label_n
                           ~machine:m.Model.m_name ~quality:q.Model.q_name
                           ~seconds:
                             ((if first then record_seconds else 0.0)
                             +. replay_seconds)
                           ~trace r);
                      (m.Model.m_name, q.Model.q_name, r))
                    series ))
              sweeps))
      groups
  in
  List.map2
    (fun (label, _) outcome ->
      match outcome with
      | Runner.Ok result -> Ok result
      | Runner.Failed (e, _) ->
        Error
          { ef_label = label;
            ef_reason = Printf.sprintf "crash: %s" (Printexc.to_string e) }
      | Runner.Timed_out ->
        Error
          { ef_label = label;
            ef_reason =
              (match opts.timeout_ms with
              | Some ms -> Printf.sprintf "timed out (no result within %d ms)" ms
              | None -> "timed out") })
    groups outcomes

(* Generate code for every candidate (sequentially, against the shared
   solver context), group candidates by the text of their generated
   program, then evaluate the groups in parallel: one interpreter
   recording per distinct (program, size), replayed per (machine x
   quality).  Codegen runs once per candidate no matter how long the
   sweep is, so the Omega query count is invariant in the sweep's
   length.  A failed group's candidates drop out of the ranked table. *)
let evaluate pipe opts ~sweeps cands =
  let codegen_seconds = ref 0.0 in
  let order = ref [] in
  let groups : (string, candidate list ref) Hashtbl.t = Hashtbl.create 16 in
  let progs : (string, Ast.program) Hashtbl.t = Hashtbl.create 16 in
  let text_of : (string, string) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let prog_v, s = Metrics.timed (fun () -> Pipeline.codegen pipe c.c_spec) in
      codegen_seconds := !codegen_seconds +. s;
      let text = Ast.program_to_string prog_v in
      Hashtbl.replace text_of c.c_label text;
      match Hashtbl.find_opt groups text with
      | Some cell -> cell := c :: !cell
      | None ->
        Hashtbl.add groups text (ref [ c ]);
        Hashtbl.add progs text prog_v;
        order := text :: !order)
    cands;
  let order = List.rev !order in
  let outcomes =
    evaluate_groups opts ~sweeps
      (List.map
         (fun text ->
           ( (List.hd (List.rev !(Hashtbl.find groups text))).c_label,
             Hashtbl.find progs text ))
         order)
  in
  let results_of_text = Hashtbl.create 16 in
  List.iter2
    (fun text -> function
      | Ok (per_size, _) -> Hashtbl.replace results_of_text text per_size
      | Error _ -> ())
    order outcomes;
  let scored =
    List.filter_map
      (fun c ->
        match
          Hashtbl.find_opt results_of_text (Hashtbl.find text_of c.c_label)
        with
        | None -> None (* its recording group failed; reported separately *)
        | Some per_size -> Some (scored_of_per_size c per_size))
      cands
  in
  let metrics =
    List.concat_map (function Ok (_, ms) -> ms | Error _ -> []) outcomes
  in
  let failures =
    List.filter_map (function Error f -> Some f | Ok _ -> None) outcomes
  in
  (scored, List.length order, !codegen_seconds, metrics, failures)

(* Sequential lower-bound-driven evaluation ([options.prune_bounds]).
   Candidates are visited in ascending order of their analytic bound so a
   strong incumbent appears early.  Each visit either reuses the results
   of an already-evaluated identical program, is skipped because its
   cycle lower bound strictly exceeds the incumbent's simulated cycles
   (the bound never exceeds the true cost, so such a candidate loses the
   rank key's first component and cannot finish first — ties are kept,
   since the tie-break could still prefer it), or is handed to
   {!evaluate_groups} as a group of one, under the same deadline as the
   parallel path.  One group at a time keeps the visit best-first: the
   point of pruning is doing less simulation, not racing it. *)
let evaluate_pruned pipe opts ~sweeps cands =
  let prog = Pipeline.program pipe in
  let codegen_seconds = ref 0.0 in
  let metrics = ref [] in
  let failures = ref [] in
  let pruned_by_bound = ref 0 in
  let head_series = match series_of opts with s :: _ -> Some s | [] -> None in
  (* the spec-aware analysis at every sweep size; [None] disables pruning
     for that candidate *)
  let analyses =
    List.map
      (fun c ->
        let per_size =
          List.map
            (fun (_, params_n, _) ->
              match Bounds.analyze ~spec:c.c_spec ~params:params_n prog with
              | exception (Loopir.Domain.Not_affine _ | Failure _) -> None
              | t -> Some t)
            sweeps
        in
        if List.for_all Option.is_some per_size then
          (c, Some (List.filter_map Fun.id per_size))
        else (c, None))
      cands
  in
  (* deterministic visit order: head-machine bound summed over levels and
     sweep, unanalyzable candidates last, canonical label as tie-break *)
  let ordered =
    let proxy (c, a) =
      match (a, head_series) with
      | Some ts, Some ((m : Model.t), _) ->
        let lvs = machine_levels m in
        ( List.fold_left
            (fun acc t ->
              List.fold_left (fun acc lv -> acc + Bounds.misses t lv) acc lvs)
            0 ts,
          c.c_label )
      | _ -> (max_int, c.c_label)
    in
    List.map snd
      (List.stable_sort compare
         (List.map (fun ca -> (proxy ca, ca)) analyses))
  in
  let results_of_text = Hashtbl.create 16 in
  let incumbent = ref None in
  let head_results per_size =
    List.map
      (fun (_, results) ->
        match results with (_, _, r) :: _ -> r | [] -> assert false)
      per_size
  in
  let update_incumbent sc per_size =
    match !incumbent with
    | Some (best, _) when compare (rank_key best) (rank_key sc) <= 0 -> ()
    | _ -> incumbent := Some (sc, head_results per_size)
  in
  let scored = ref [] in
  List.iter
    (fun (c, analysis) ->
      let prog_v, s = Metrics.timed (fun () -> Pipeline.codegen pipe c.c_spec) in
      codegen_seconds := !codegen_seconds +. s;
      let text = Ast.program_to_string prog_v in
      match Hashtbl.find_opt results_of_text text with
      | Some per_size ->
        (* an identical program was already simulated: its results are
           free, so never prune here *)
        let sc = scored_of_per_size c per_size in
        scored := sc :: !scored;
        update_incumbent sc per_size
      | None ->
        let pruned =
          match (!incumbent, analysis, head_series) with
          | Some (inc_scored, inc_results), Some ts, Some (m, q) ->
            let lvs = machine_levels m in
            let lb =
              List.fold_left2
                (fun acc t (inc : Model.result) ->
                  let bounds =
                    List.map
                      (fun lv -> (lv.Bounds.lv_name, Bounds.misses t lv))
                      lvs
                  in
                  Ratio.add acc
                    (cycle_lower_bound ~machine:m ~quality:q ~inc ~bounds
                       ~distinct:(Bounds.distinct t)))
                Ratio.zero ts inc_results
            in
            Ratio.compare lb (Ratio.of_float inc_scored.s_cycles) > 0
          | _ -> false
        in
        if pruned then incr pruned_by_bound
        else
          List.iter
            (function
              | Ok (per_size, ms) ->
                metrics := ms :: !metrics;
                Hashtbl.replace results_of_text text per_size;
                let sc = scored_of_per_size c per_size in
                scored := sc :: !scored;
                update_incumbent sc per_size
              | Error f -> failures := f :: !failures)
            (evaluate_groups opts ~sweeps [ (c.c_label, prog_v) ]))
    ordered;
  let metrics = List.concat (List.rev !metrics) in
  ( List.rev !scored,
    Hashtbl.length results_of_text,
    !codegen_seconds,
    metrics,
    List.rev !failures,
    !pruned_by_bound )

(* ------------------------------------------------------------------ *)
(* Cache effectiveness                                                 *)
(* ------------------------------------------------------------------ *)

type cache_compare = {
  cc_cold_seconds : float;
  cc_warm_seconds : float;
  cc_warm_hits : int;
  cc_agree : bool;
}

(* Re-decide every candidate on a fresh memoizing context: the cold pass
   fills the table, the warm pass replays the same queries.  Verdicts must
   agree; the wall-clock ratio is reported, not asserted (a loaded 1-core
   CI machine makes timing assertions flaky). *)
let run_cache_compare pipe cands =
  let prog = Pipeline.program pipe in
  let deps = Pipeline.deps pipe in
  let ctx = Omega.Ctx.create ~cache:true () in
  let verdicts () =
    List.map (fun c -> Legality.is_legal_deps ~ctx prog c.c_spec deps) cands
  in
  let cold, cc_cold_seconds = Metrics.timed verdicts in
  let hits0 = Omega.Ctx.cache_hits ctx in
  let warm, cc_warm_seconds = Metrics.timed verdicts in
  { cc_cold_seconds;
    cc_warm_seconds;
    cc_warm_hits = Omega.Ctx.cache_hits ctx - hits0;
    cc_agree = cold = warm }

(* ------------------------------------------------------------------ *)
(* The tuner                                                           *)
(* ------------------------------------------------------------------ *)

type timing = {
  t_enumerate : float;
  t_codegen : float;
  t_evaluate : float;
  t_total : float;
}

type report = {
  rp_kernel : string;
  rp_params : (string * int) list;
  rp_options : options;
  rp_counts : counts;
  rp_solver : Metrics.solver;
  rp_timing : timing;
  rp_cache_compare : cache_compare option;
  rp_input_cycles : float;
  rp_table : scored list;
  rp_failures : eval_failure list;
  rp_metrics : Metrics.sim list;
}

let best rp = match rp.rp_table with [] -> None | s :: _ -> Some s

let tune ?(options = default_options) ?arrays ?init ~kernel ~params prog =
  let t_start = Metrics.now_s () in
  let init_for n =
    match init with
    | Some f -> f
    | None -> Kernels.Inits.for_kernel kernel ~n
  in
  let base_n = Option.value ~default:0 (List.assoc_opt "N" params) in
  (* the evaluation sweep: the caller's params alone, or one point per
     [options.ns] size (params with N rebound, kernel init re-derived) *)
  let sweeps =
    match options.ns with
    | [] -> [ (None, params, init_for base_n) ]
    | ns ->
      List.map
        (fun n ->
          (Some n, ("N", n) :: List.remove_assoc "N" params, init_for n))
        ns
  in
  let pipe =
    Pipeline.create
      ~solver:
        (Omega.Ctx.create ~cache:true ?fuel:options.fuel
           ?timeout_ms:options.timeout_ms ())
      prog
  in
  let arrays =
    match arrays with Some a -> a | None -> Search.default_arrays prog
  in
  let (cands, n_enumerated, n_pruned, n_illegal, n_unknown), t_enumerate =
    Metrics.timed (fun () -> enumerate pipe options ~arrays)
  in
  let cands =
    match options.shuffle_seed with
    | None -> cands
    | Some s -> shuffle s cands
  in
  let ( (scored, n_variants, t_codegen, metrics, failures, n_pruned_by_bound),
        t_evaluate ) =
    Metrics.timed (fun () ->
        if options.prune_bounds then evaluate_pruned pipe options ~sweeps cands
        else
          let scored, v, cg, ms, fs = evaluate pipe options ~sweeps cands in
          (scored, v, cg, ms, fs, 0))
  in
  (* attach the analytic miss lower bounds (at the first evaluated size) to
     every surviving row, pruned or not: the report carries each
     candidate's headroom = simulated misses / lower bound, per level *)
  let head_params = match sweeps with (_, p, _) :: _ -> p | [] -> params in
  let scored =
    List.map
      (fun s ->
        match
          bounds_for prog ~params:head_params ~machines:options.machines
            s.s_cand.c_spec
        with
        | None -> s
        | Some (_, per_machine) -> { s with s_bounds = per_machine })
      scored
  in
  (* the input baseline walks the same sweep, so speedup = input / best
     compares like with like *)
  let input_cycles =
    match series_of options with
    | (machine, quality) :: _ ->
      List.fold_left
        (fun acc point ->
          acc
          +. (Model.consume ~machine ~quality (record_at point prog))
               .Model.r_cycles)
        0.0 sweeps
    | [] -> 0.0
  in
  let cache_compare =
    if options.cache_compare then Some (run_cache_compare pipe cands) else None
  in
  { rp_kernel = kernel;
    rp_params = params;
    rp_options = options;
    rp_counts =
      { n_enumerated;
        n_pruned;
        n_illegal;
        n_unknown;
        n_legal = List.length cands;
        n_variants;
        n_pruned_by_bound };
    rp_solver = Metrics.solver_of_ctx (Pipeline.solver pipe);
    rp_timing =
      { t_enumerate;
        t_codegen;
        t_evaluate;
        t_total = Metrics.now_s () -. t_start };
    rp_cache_compare = cache_compare;
    rp_input_cycles = input_cycles;
    rp_table = rank scored;
    rp_failures = failures;
    rp_metrics = metrics }

(* ------------------------------------------------------------------ *)
(* Fuzz-harness consistency step                                       *)
(* ------------------------------------------------------------------ *)

(* Differential check used by the fuzzer: on the program's single-factor
   lattice, a memoizing solver context must give the same legality answers
   as a fresh cache-less one.  Returns how many specs were compared. *)
let consistency_step ?(sizes = [ 2 ]) ?(max_specs = 8) prog =
  let arrays = Search.default_arrays prog in
  let specs =
    List.filteri
      (fun i _ -> i < max_specs)
      (raw_singles prog ~arrays ~sizes)
  in
  match specs with
  | [] -> Ok 0
  | _ -> begin
    let pipe = Pipeline.create prog in
    let deps = Pipeline.deps pipe in
    let plain = Omega.Ctx.create () in
    match
      List.find_opt
        (fun spec ->
          Pipeline.is_legal_deps pipe spec ~deps
          <> Legality.is_legal_deps ~ctx:plain prog spec deps)
        specs
    with
    | None -> Ok (List.length specs)
    | Some spec ->
      Error
        (Printf.sprintf "cached/uncached legality disagree on %s"
           (spec_label spec))
  end

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let int_opt_json = function None -> Json.Null | Some i -> Json.Int i

(* "lower_bounds": per machine, per level, the analytic miss lower bound
   of this candidate at the first evaluated size. *)
let lower_bounds_json s =
  Json.List
    (List.map
       (fun (m, lvs) ->
         Json.Obj
           [ ("machine", Json.Str m);
             ("levels",
               Json.Obj (List.map (fun (n, b) -> (n, Json.Int b)) lvs)) ])
       s.s_bounds)

(* "headroom": simulated misses / lower bound per level — how far the
   candidate sits above what any execution order could achieve (always
   >= 1.0 by soundness; null where the bound or the series is missing). *)
let headroom_json s =
  Json.List
    (List.map
       (fun (mname, lvs) ->
         let result =
           List.find_map
             (fun (m, _, r) -> if String.equal m mname then Some r else None)
             s.s_results
         in
         let levels =
           match result with
           | None -> List.map (fun (n, _) -> (n, Json.Null)) lvs
           | Some r ->
             List.mapi
               (fun i (n, b) ->
                 match List.nth_opt r.Model.r_levels i with
                 | Some (st : Model.level_stat) when b > 0 ->
                   ( n,
                     Json.Float
                       (float_of_int st.Model.s_misses /. float_of_int b) )
                 | _ -> (n, Json.Null))
               lvs
         in
         Json.Obj [ ("machine", Json.Str mname); ("levels", Json.Obj levels) ])
       s.s_bounds)

let scored_to_json i s =
  Json.Obj
    [ ("rank", Json.Int (i + 1));
      ("spec", Json.Str s.s_cand.c_label);
      ("factors", Json.Int s.s_cand.c_factors);
      ("fully_constrained", Json.Bool s.s_cand.c_fully_constrained);
      ("unconstrained_refs", Json.Int s.s_cand.c_unconstrained);
      ("cycles", Json.Float s.s_cycles);
      ("mflops", Json.Float s.s_mflops);
      ("lower_bounds", lower_bounds_json s);
      ("headroom", headroom_json s);
      ("sweep",
        Json.List
          (List.map
             (fun (n, cycles) ->
               Json.Obj
                 [ ("n", int_opt_json n); ("cycles", Json.Float cycles) ])
             s.s_sweep));
      ("results",
        Json.List
          (List.map
             (fun (m, q, (r : Model.result)) ->
               Json.Obj
                 [ ("machine", Json.Str m);
                   ("quality", Json.Str q);
                   ("cycles", Json.Float r.Model.r_cycles);
                   ("mflops", Json.Float r.Model.r_mflops);
                   ("flops", Json.Int r.Model.r_flops);
                   ("accesses", Json.Int r.Model.r_accesses) ])
             s.s_results)) ]

let cache_compare_to_json c =
  Json.Obj
    [ ("cold_seconds", Json.Float c.cc_cold_seconds);
      ("warm_seconds", Json.Float c.cc_warm_seconds);
      ("warm_hits", Json.Int c.cc_warm_hits);
      ("agree", Json.Bool c.cc_agree) ]

(* The "cache_compare" key is appended only when the pass ran, so default
   reports keep one byte layout (same convention as Metrics' "trace"). *)
let report_to_json rp =
  let o = rp.rp_options in
  Json.Obj
    ([ ("schema", Json.Str Report.tune_report);
       ("kernel", Json.Str rp.rp_kernel);
       ("domains", Json.Int o.domains);
       ("params", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) rp.rp_params));
       ("sizes", Json.List (List.map (fun s -> Json.Int s) o.sizes));
       ("ns", Json.List (List.map (fun n -> Json.Int n) o.ns));
       ("prune_bounds", Json.Bool o.prune_bounds);
       ("depth", Json.Int o.depth);
       ("timeout_ms", int_opt_json o.timeout_ms);
       ("fuel", int_opt_json o.fuel);
       ("machines",
         Json.List
           (List.map (fun (m : Model.t) -> Json.Str m.Model.m_name) o.machines));
       ("qualities",
         Json.List
           (List.map
              (fun (q : Model.quality) -> Json.Str q.Model.q_name)
              o.qualities));
       ("counts",
         Json.Obj
           [ ("enumerated", Json.Int rp.rp_counts.n_enumerated);
             ("pruned", Json.Int rp.rp_counts.n_pruned);
             ("illegal", Json.Int rp.rp_counts.n_illegal);
             ("unknown", Json.Int rp.rp_counts.n_unknown);
             ("legal", Json.Int rp.rp_counts.n_legal);
             ("variants", Json.Int rp.rp_counts.n_variants);
             ("pruned_by_bound", Json.Int rp.rp_counts.n_pruned_by_bound) ]);
       ("solver", Metrics.solver_to_json rp.rp_solver);
       (* Omega tests actually run for the whole campaign — with [ns] a
          sweep, invariant in its length (specialization is solver-free) *)
       ("solves_per_sweep", Json.Int (Metrics.solver_solves rp.rp_solver));
       ("timing",
         Json.Obj
           [ ("enumerate_seconds", Json.Float rp.rp_timing.t_enumerate);
             ("codegen_seconds", Json.Float rp.rp_timing.t_codegen);
             ("evaluate_seconds", Json.Float rp.rp_timing.t_evaluate);
             ("total_seconds", Json.Float rp.rp_timing.t_total) ]);
       ("input_cycles", Json.Float rp.rp_input_cycles);
       ("best",
         match best rp with
         | Some s -> Json.Str s.s_cand.c_label
         | None -> Json.Null);
       ("table", Json.List (List.mapi scored_to_json rp.rp_table));
       ("failures",
         Json.List
           (List.map
              (fun f ->
                Json.Obj
                  [ ("spec", Json.Str f.ef_label);
                    ("reason", Json.Str f.ef_reason) ])
              rp.rp_failures));
       ("metrics", Json.List (List.map Metrics.sim_to_json rp.rp_metrics)) ]
    @
    match rp.rp_cache_compare with
    | None -> []
    | Some c -> [ ("cache_compare", cache_compare_to_json c) ])

(* Structural validation for `shacklec tune --check-json` and CI: the
   shared registry does the work; this wrapper only pins the family, so a
   valid fuzz report handed to `tune --check-json` still fails. *)
let check_report_json j =
  let ( let* ) = Result.bind in
  let* tag = Report.check j in
  if String.equal tag Report.tune_report then Ok ()
  else
    Error (Printf.sprintf "schema %S, expected %S" tag Report.tune_report)

(* ------------------------------------------------------------------ *)
(* Terminal table                                                      *)
(* ------------------------------------------------------------------ *)

let pp_report fmt rp =
  let c = rp.rp_counts in
  Format.fprintf fmt "tune %s (depth %d, sizes %s%s)@." rp.rp_kernel
    rp.rp_options.depth
    (String.concat "," (List.map string_of_int rp.rp_options.sizes))
    (match rp.rp_options.ns with
    | [] -> ""
    | ns ->
      Printf.sprintf ", N sweep %s"
        (String.concat "," (List.map string_of_int ns)));
  Format.fprintf fmt
    "  candidates: %d enumerated, %d pruned (Thm 2), %d illegal%s, %d legal, %d distinct programs%s@."
    c.n_enumerated c.n_pruned c.n_illegal
    (if c.n_unknown = 0 then ""
     else Printf.sprintf ", %d unknown (budget)" c.n_unknown)
    c.n_legal c.n_variants
    (if c.n_pruned_by_bound = 0 then ""
     else Printf.sprintf ", %d pruned by bound" c.n_pruned_by_bound);
  let s = rp.rp_solver in
  Format.fprintf fmt
    "  solver: %d queries, %d splinters%s; cache %s, %d hits / %d misses@."
    s.Metrics.so_queries s.Metrics.so_splinters
    (if s.Metrics.so_unknowns = 0 then ""
     else Printf.sprintf ", %d gave up" s.Metrics.so_unknowns)
    (if s.Metrics.so_cache_enabled then "on" else "off")
    s.Metrics.so_cache_hits s.Metrics.so_cache_misses;
  Format.fprintf fmt "  solves per sweep: %d@." (Metrics.solver_solves s);
  (match rp.rp_cache_compare with
  | None -> ()
  | Some cc ->
    Format.fprintf fmt
      "  cache check: cold %.4fs, warm %.4fs (%d hits), verdicts %s@."
      cc.cc_cold_seconds cc.cc_warm_seconds cc.cc_warm_hits
      (if cc.cc_agree then "agree" else "DISAGREE"));
  Format.fprintf fmt "  input: %.0f cycles@." rp.rp_input_cycles;
  Format.fprintf fmt "  %-4s %-12s %-10s %-7s %-7s %s@." "rank" "cycles"
    "mflops" "hdrm" "full" "spec";
  (* hdrm: head-machine L1 simulated misses / analytic lower bound *)
  let head_headroom s =
    match (s.s_bounds, s.s_results) with
    | (_, (_, b1) :: _) :: _, (_, _, r) :: _ when b1 > 0 -> (
      match r.Model.r_levels with
      | st :: _ ->
        Printf.sprintf "%.2f"
          (float_of_int st.Model.s_misses /. float_of_int b1)
      | [] -> "-")
    | _ -> "-"
  in
  List.iteri
    (fun i s ->
      Format.fprintf fmt "  %-4d %-12.0f %-10.2f %-7s %-7s %s@." (i + 1)
        s.s_cycles s.s_mflops (head_headroom s)
        (if s.s_cand.c_fully_constrained then "yes" else "no")
        s.s_cand.c_label)
    rp.rp_table;
  List.iter
    (fun f ->
      Format.fprintf fmt "  FAILED %s: %s@." f.ef_label f.ef_reason)
    rp.rp_failures;
  Format.fprintf fmt "  wall: enumerate %.4fs, codegen %.4fs, evaluate %.4fs, total %.4fs@."
    rp.rp_timing.t_enumerate rp.rp_timing.t_codegen rp.rp_timing.t_evaluate
    rp.rp_timing.t_total
