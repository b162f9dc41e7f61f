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

   Evaluation visits the legal candidates in ascending order of their
   analytic communication lower bound ({!Bounds}), in fixed-size batches;
   a candidate whose lower-bounded cycle cost already exceeds the best
   simulated so far is pruned before code generation.  The rest are
   evaluated record-once / replay-many: candidates whose generated
   programs coincide share a single interpreter execution, and each
   recording is replayed per (machine x quality) on a fresh simulator.
   Only the simulation fans out over domains; enumeration, legality,
   pruning and code generation run sequentially, so every reported
   quantity except wall-clock is independent of [domains]. *)

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
  timeout_ms : int option;
  fuel : int option;
  ns : int list;
      (** evaluation problem sizes: [[]] (default) evaluates at the
          caller's [params] only; a non-empty list sweeps N over these
          values, re-using each candidate's one generated program and
          ranking by summed cycles.  Enumeration, legality and codegen run
          once regardless of the sweep's length — the per-size work is the
          solver-free {!Loopir.Stages.specialize}. *)
}

let default_options =
  { sizes = [ 16 ];
    depth = 2;
    domains = 1;
    machines = [ Model.sp2_like ];
    qualities = [ Model.untuned ];
    timeout_ms = None;
    fuel = None;
    ns = [] }

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
  Search.singles prog ~arrays ~blockings:(fun array ->
      List.map (fun size -> Blocking.blocks_2d ~array ~size) sizes)

type counts = {
  n_enumerated : int;
  n_pruned : int;
  n_illegal : int;
  n_unknown : int;
  n_legal : int;
  n_variants : int;
}

(* Grow the lattice level by level.  Products of legal factors are legal
   (Section 6), but extensions are still pushed through [Pipeline.probe]:
   the per-factor fast path of [Legality.probe_deps] re-decides the factors'
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

(* ------------------------------------------------------------------ *)
(* Analytic lower bounds                                               *)
(* ------------------------------------------------------------------ *)

(* A machine's hierarchy in {!Bounds} units: cumulative element
   capacities, one shared line size (true of every machine model). *)
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

(* The spec-free half of every candidate's analysis, one per sweep point.
   It is computed at the first candidate's analysis, so a tune with no
   candidate computes none; a raise is re-raised at every force. *)
let prepare prog ~sweeps =
  lazy (List.map (fun (_, params, _) -> Bounds.prepare ~params prog) sweeps)

(* The one analysis of a candidate: {!Bounds.analyze_prepared} at every
   sweep point, or [None] when the program or spec falls outside the
   affine class the analysis covers (such a candidate is visited last,
   never pruned and reported without bounds). *)
let analyze prepared spec =
  match List.map (Bounds.analyze_prepared ~spec) (Lazy.force prepared) with
  | exception (Loopir.Domain.Not_affine _ | Failure _) -> None
  | ts -> Some ts

(* Per-level miss lower bounds of one analysis on one machine. *)
let misses t (m : Model.t) =
  List.map
    (fun lv -> (lv.Bounds.lv_name, Bounds.misses t lv))
    (machine_levels m)

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
    ~(inc : Model.result) t =
  let distinct = Bounds.distinct t in
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
  go machine.Model.levels (List.map snd (misses t machine));
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

(* A legal candidate skipped before codegen: its cycle lower bound on the
   head series (summed over the sweep) strictly exceeded the incumbent's
   simulated cycles at that point of the visit. *)
type bound_pruned = {
  bp_cand : candidate;
  bp_bound : float;
  bp_incumbent : float;
}

(* Rank by simulated cycles on the head (machine, quality) series.  Ties
   (common: a product can generate the same program as one of its factors)
   break toward fewer unconstrained references — Theorem 2 as the ranking
   signal, Section 8 — then fewer factors, then the canonical label, so
   the table is deterministic and independent of enumeration order. *)
let rank_key s =
  (s.s_cycles, s.s_cand.c_unconstrained, s.s_cand.c_factors, s.s_cand.c_label)

let rank scored =
  List.stable_sort (fun a b -> compare (rank_key a) (rank_key b)) scored

let head_result = function (_, _, r) :: _ -> r | [] -> assert false

(* One program's evaluation: per sweep point, (machine, quality, result)
   per series, the head series first. *)
type per_size = (int option * (string * string * Model.result) list) list

(* Build a row from one candidate's per-size evaluation results and its
   per-machine bounds. *)
let scored_of_per_size c (per_size : per_size) ~bounds =
  let sweep =
    List.map
      (fun (n, results) -> (n, (head_result results).Model.r_cycles))
      per_size
  in
  let first = match per_size with (_, r) :: _ -> r | [] -> assert false in
  { s_cand = c;
    s_results = first;
    s_sweep = sweep;
    s_cycles = List.fold_left (fun a (_, c) -> a +. c) 0.0 sweep;
    s_mflops = (head_result first).Model.r_mflops;
    s_bounds = bounds }

(* The result of the evaluation path, before ranking. *)
type evaluation = {
  ev_scored : scored list;
  ev_bound_pruned : bound_pruned list;  (* in visit order *)
  ev_variants : int;
  ev_codegen_seconds : float;
  ev_metrics : Metrics.sim list;
  ev_failures : eval_failure list;
}

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

(* The failure reason of a group that timed out. *)
let timed_out opts =
  match opts.timeout_ms with
  | Some ms -> Printf.sprintf "timed out (no result within %d ms)" ms
  | None -> "timed out"

(* Whether the caller's deadline has passed. *)
let expired () =
  match Runner.check () with () -> false | exception Runner.Expired -> true

(* Evaluate one batch's distinct programs.  At every sweep point a
   program is recorded once and replayed per (machine x quality) series
   ([Metrics.record_replay]), with one metrics row per series; the rows
   come back labeled with their size suffix only ("" or "/N=n"), the
   caller prefixes its group label.  Programs fan out over the supervised
   pool: one that crashes or blows past [opts.timeout_ms] (or the
   caller's deadline) comes back as [Error reason] instead of aborting
   the campaign.  Replay checks the deadline before each recording and
   each replay, so a timeout is observed at series granularity. *)
let evaluate_groups opts ~sweeps progs =
  let series = series_of opts in
  let outcomes =
    Runner.map_outcomes ~domains:opts.domains ?timeout_ms:opts.timeout_ms
      (fun prog_v ->
        Metrics.collect (fun () ->
            List.map
              (fun ((n, _, _) as point) ->
                let suffix =
                  match n with
                  | None -> ""
                  | Some n -> Printf.sprintf "/N=%d" n
                in
                let results =
                  Metrics.record_replay
                    (fun () -> record_at point prog_v)
                    (List.map (fun (m, q) -> (suffix, m, q)) series)
                in
                ( n,
                  List.map2
                    (fun (m, q) r -> (m.Model.m_name, q.Model.q_name, r))
                    series results ))
              sweeps))
      progs
  in
  List.map
    (function
      | Runner.Ok result -> Ok result
      | Runner.Failed (e, _) ->
        Error (Printf.sprintf "crash: %s" (Printexc.to_string e))
      | Runner.Timed_out -> Error (timed_out opts))
    outcomes

(* Candidates are visited in batches of this many.  A constant, never
   derived from [domains]: the incumbent each batch is pruned against —
   and with it the whole report — is then the same at any domain count. *)
let batch_size = 8

let rec split_at n = function
  | x :: xs when n > 0 ->
    let a, b = split_at (n - 1) xs in
    (x :: a, b)
  | xs -> ([], xs)

(* One distinct generated program: the earliest-enumerated candidate
   generated with its text (which labels its metrics rows and failure),
   and its evaluation outcome. *)
type program = {
  mutable first : int * candidate;
  outcome : (per_size * Metrics.sim list, string) result;
}

(* The one evaluation path.  Each legal candidate is analyzed once per
   sweep point, from that point's one spec-free preparation shared by
   every candidate; that analysis orders the visit (head-machine miss bound
   summed over levels and sweep, unanalyzable candidates last, canonical
   label as tie-break), tests the candidate for pruning and gives its row
   [s_bounds].  Batches are taken in visit order.  Before codegen, a
   candidate whose cycle lower bound strictly exceeds the incumbent's
   simulated cycles is pruned: the bound never exceeds the true cost, so
   it loses the rank key's first component and cannot finish first (ties
   are kept, since the tie-break could still prefer it).  The survivors
   are generated sequentially against the shared solver context, once
   however long the sweep (so the Omega query count is invariant in its
   length), and grouped by the text of their program; a program already
   evaluated in an earlier batch is reused, the batch's new ones fan out
   through {!evaluate_groups}.  A failed program's candidates drop out of
   the ranked table.  The incumbent moves only between batches.  Metrics
   rows and failures are listed per program in enumeration order, so they
   do not depend on the visit order.  Once the caller's deadline has
   passed, no further batch is generated: each candidate left unvisited
   gets a failure row, after the programs' own and in enumeration order,
   with the reason a timed-out group gets. *)
let evaluate pipe opts ~sweeps cands =
  let prepared = prepare (Pipeline.program pipe) ~sweeps in
  (* once the caller's deadline has passed, the remaining candidates go
     unanalyzed, as unanalyzable ones do *)
  let analysis c = if expired () then None else analyze prepared c.c_spec in
  let head = match series_of opts with s :: _ -> Some s | [] -> None in
  let visit =
    let key (_, c, a) =
      match (a, head) with
      | Some ts, Some (m, _) ->
        ( List.fold_left
            (fun acc t ->
              List.fold_left (fun acc (_, b) -> acc + b) acc (misses t m))
            0 ts,
          c.c_label )
      | _ -> (max_int, c.c_label)
    in
    List.map snd
      (List.stable_sort
         (fun (k, _) (k', _) -> compare k k')
         (List.mapi
            (fun i c ->
              let ica = (i, c, analysis c) in
              (key ica, ica))
            cands))
  in
  let codegen_seconds = ref 0.0 in
  let scored = ref [] and pruned = ref [] in
  let programs : (string, program) Hashtbl.t = Hashtbl.create 16 in
  (* the best row so far, with its head-series result per sweep point *)
  let incumbent = ref None in
  (* [true] (and the candidate listed in [pruned]) when its bound loses *)
  let prune (_, c, a) =
    match (!incumbent, a, head) with
    | Some (inc, inc_results), Some ts, Some (machine, quality) ->
      let lb =
        List.fold_left2
          (fun acc t inc ->
            Ratio.add acc (cycle_lower_bound ~machine ~quality ~inc t))
          Ratio.zero ts inc_results
      in
      if Ratio.compare lb (Ratio.of_float inc.s_cycles) > 0 then begin
        pruned :=
          { bp_cand = c;
            bp_bound = Ratio.to_float lb;
            bp_incumbent = inc.s_cycles }
          :: !pruned;
        true
      end
      else false
    | _ -> false
  in
  let bounds_of a =
    match a with
    | Some (t :: _) ->
      List.map (fun m -> (m.Model.m_name, misses t m)) opts.machines
    | _ -> []
  in
  let unvisited = ref [] in
  let rec batches visit =
    if visit = [] then ()
    else if expired () then unvisited := visit
    else begin
      let batch, rest = split_at batch_size visit in
      let generated =
        List.map
          (fun (i, c, a) ->
            let prog_v, s =
              Metrics.timed (fun () -> Pipeline.codegen pipe c.c_spec)
            in
            codegen_seconds := !codegen_seconds +. s;
            (i, c, a, Ast.program_to_string prog_v, prog_v))
          (List.filter (fun ica -> not (prune ica)) batch)
      in
      (* each program not evaluated before, once *)
      let fresh = Hashtbl.create 8 in
      let groups =
        List.filter_map
          (fun (i, c, _, text, prog_v) ->
            if Hashtbl.mem programs text || Hashtbl.mem fresh text then None
            else begin
              Hashtbl.add fresh text ();
              Some ((i, c), text, prog_v)
            end)
          generated
      in
      List.iter2
        (fun (first, text, _) outcome ->
          Hashtbl.add programs text { first; outcome })
        groups
        (evaluate_groups opts ~sweeps
           (List.map (fun (_, _, prog_v) -> prog_v) groups));
      List.iter
        (fun (i, c, a, text, _) ->
          let p = Hashtbl.find programs text in
          if i < fst p.first then p.first <- (i, c);
          match p.outcome with
          | Error _ -> ()
          | Ok (per_size, _) -> (
            let sc = scored_of_per_size c per_size ~bounds:(bounds_of a) in
            scored := sc :: !scored;
            match !incumbent with
            | Some (best, _) when compare (rank_key best) (rank_key sc) <= 0 ->
              ()
            | _ ->
              incumbent :=
                Some (sc, List.map (fun (_, rs) -> head_result rs) per_size)))
        generated;
      batches rest
    end
  in
  batches visit;
  let programs =
    List.sort
      (fun p p' -> compare (fst p.first) (fst p'.first))
      (List.of_seq (Hashtbl.to_seq_values programs))
  in
  let label p = (snd p.first).c_label in
  { ev_scored = List.rev !scored;
    ev_bound_pruned = List.rev !pruned;
    ev_variants = List.length programs;
    ev_codegen_seconds = !codegen_seconds;
    ev_metrics =
      List.concat_map
        (fun p ->
          match p.outcome with
          | Ok (_, ms) ->
            List.map
              (fun (m : Metrics.sim) ->
                { m with Metrics.sim_label = label p ^ m.Metrics.sim_label })
              ms
          | Error _ -> [])
        programs;
    ev_failures =
      List.filter_map
        (fun p ->
          match p.outcome with
          | Error ef_reason -> Some { ef_label = label p; ef_reason }
          | Ok _ -> None)
        programs
      @ List.map
          (fun (_, c, _) -> { ef_label = c.c_label; ef_reason = timed_out opts })
          (List.sort (fun (i, _, _) (j, _, _) -> compare i j) !unvisited) }

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
  rp_input_cycles : float;
  rp_table : scored list;
  rp_bound_pruned : bound_pruned list;
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
  let ev, t_evaluate =
    Metrics.timed (fun () -> evaluate pipe options ~sweeps cands)
  in
  (* the input baseline walks the same sweep, so speedup = input / best
     compares like with like; past the caller's deadline it is not
     recorded *)
  let input_cycles =
    match series_of options with
    | (machine, quality) :: _ when not (expired ()) ->
      List.fold_left
        (fun acc point ->
          acc
          +. (Model.consume ~machine ~quality (record_at point prog))
               .Model.r_cycles)
        0.0 sweeps
    | _ -> 0.0
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
        n_variants = ev.ev_variants };
    rp_solver = Metrics.solver_of_ctx (Pipeline.solver pipe);
    rp_timing =
      { t_enumerate;
        t_codegen = ev.ev_codegen_seconds;
        t_evaluate;
        t_total = Metrics.now_s () -. t_start };
    rp_input_cycles = input_cycles;
    rp_table = rank ev.ev_scored;
    rp_bound_pruned = ev.ev_bound_pruned;
    rp_failures = ev.ev_failures;
    rp_metrics = ev.ev_metrics }

(* ------------------------------------------------------------------ *)
(* Fuzz-harness consistency step                                       *)
(* ------------------------------------------------------------------ *)

(* Differential check used by the fuzzer: on the program's single-factor
   lattice, a memoizing solver context must give the same legality answers
   as a fresh cache-less one, on its first 8 specs.  Returns how many specs
   were compared. *)
let consistency_step ?(sizes = [ 2 ]) prog =
  let arrays = Search.default_arrays prog in
  let specs =
    List.filteri (fun i _ -> i < 8) (raw_singles prog ~arrays ~sizes)
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
          Shackle.Verdict.is_legal (Pipeline.probe_deps pipe spec ~deps)
          <> Shackle.Verdict.is_legal
               (Legality.probe_deps ~ctx:plain prog spec deps))
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

(* Keys in fixed order; everything outside "timing", "metrics" and the
   echoed "domains" is byte-identical across runs and domain counts. *)
let report_to_json rp =
  let o = rp.rp_options in
  Json.Obj
    [ ("schema", Json.Str Report.tune_report);
      ("kernel", Json.Str rp.rp_kernel);
      ("domains", Json.Int o.domains);
      ("params", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) rp.rp_params));
      ("sizes", Json.List (List.map (fun s -> Json.Int s) o.sizes));
      ("ns", Json.List (List.map (fun n -> Json.Int n) o.ns));
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
            ("pruned_by_bound", Json.Int (List.length rp.rp_bound_pruned)) ]);
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
      ("bound_pruned",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [ ("spec", Json.Str p.bp_cand.c_label);
                   ("lower_bound_cycles", Json.Float p.bp_bound);
                   ("incumbent_cycles", Json.Float p.bp_incumbent) ])
             rp.rp_bound_pruned));
      ("metrics", Json.List (List.map Metrics.sim_to_json rp.rp_metrics)) ]

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
    (match rp.rp_bound_pruned with
    | [] -> ""
    | ps -> Printf.sprintf ", %d pruned by bound" (List.length ps));
  let s = rp.rp_solver in
  Format.fprintf fmt
    "  solver: %d queries, %d splinters%s; cache %s, %d hits / %d misses@."
    s.Metrics.so_queries s.Metrics.so_splinters
    (if s.Metrics.so_unknowns = 0 then ""
     else Printf.sprintf ", %d gave up" s.Metrics.so_unknowns)
    (if s.Metrics.so_cache_enabled then "on" else "off")
    s.Metrics.so_cache_hits s.Metrics.so_cache_misses;
  Format.fprintf fmt "  solves per sweep: %d@." (Metrics.solver_solves s);
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
