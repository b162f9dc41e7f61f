module Ast = Loopir.Ast
module Dep = Dependence.Dep
module Spec = Shackle.Spec
module Verdict = Shackle.Verdict
module Blocking = Shackle.Blocking
module Search = Shackle.Search
module Verify = Exec.Verify
module Store = Exec.Store
module Model = Machine.Model

type kind =
  | Roundtrip
  | Legality
  | Codegen
  | Replay
  | Tune
  | Par
  | Wire
  | Stage
  | Bound
  | Crash
  | Timeout

type failure = { kind : kind; detail : string; spec_text : string option }

type hooks = {
  legality : Pipeline.t -> Spec.t -> deps:Dep.t list -> Verdict.t;
}

let default_hooks =
  { legality = (fun pipe spec ~deps -> Pipeline.probe_deps pipe spec ~deps) }

let always_legal_hooks = { legality = (fun _ _ ~deps:_ -> Verdict.Legal) }

(* Solver bounds for one oracle run, carried into the pipeline's context.
   The wall-clock bound is the ambient deadline, which every solver
   context honours and [check_exn] polls between phases. *)
type budget = { fuel : int option; starve_after : int option }

let no_budget = { fuel = None; starve_after = None }

let solver_of_budget b =
  Polyhedra.Omega.Ctx.create ~cache:true ?fuel:b.fuel
    ?starve_after:b.starve_after ()

type config = {
  ns : int list;
  verify_ns : int list;
  block_sizes : int list;
  max_specs : int;
}

let quick = { ns = [ 2; 3 ]; verify_ns = [ 3; 4 ]; block_sizes = [ 2 ]; max_specs = 12 }

let thorough =
  { ns = [ 2; 3; 4 ]; verify_ns = [ 3; 5 ]; block_sizes = [ 2; 3 ]; max_specs = 32 }

type stats = {
  specs : int;
  legal_specs : int;
  verified : int;
  skipped : int;
  tune_checked : int;
  par_checked : int;
  wire_checked : int;
  chaos_checked : int;
  stage_checked : int;
  bound_checked : int;
  gave_up : int;
}

let zero_stats =
  { specs = 0;
    legal_specs = 0;
    verified = 0;
    skipped = 0;
    tune_checked = 0;
    par_checked = 0;
    wire_checked = 0;
    chaos_checked = 0;
    stage_checked = 0;
    bound_checked = 0;
    gave_up = 0 }

let add_stats a b =
  { specs = a.specs + b.specs;
    legal_specs = a.legal_specs + b.legal_specs;
    verified = a.verified + b.verified;
    skipped = a.skipped + b.skipped;
    tune_checked = a.tune_checked + b.tune_checked;
    par_checked = a.par_checked + b.par_checked;
    wire_checked = a.wire_checked + b.wire_checked;
    chaos_checked = a.chaos_checked + b.chaos_checked;
    stage_checked = a.stage_checked + b.stage_checked;
    bound_checked = a.bound_checked + b.bound_checked;
    gave_up = a.gave_up + b.gave_up }

let kind_string = function
  | Roundtrip -> "roundtrip"
  | Legality -> "legality"
  | Codegen -> "codegen"
  | Replay -> "replay"
  | Tune -> "tune"
  | Par -> "par"
  | Wire -> "wire"
  | Stage -> "stage"
  | Bound -> "bound"
  | Crash -> "crash"
  | Timeout -> "timeout"

let kind_of_string = function
  | "roundtrip" -> Some Roundtrip
  | "legality" -> Some Legality
  | "codegen" -> Some Codegen
  | "replay" -> Some Replay
  | "tune" -> Some Tune
  | "par" -> Some Par
  | "wire" -> Some Wire
  | "stage" -> Some Stage
  | "bound" -> Some Bound
  | "crash" -> Some Crash
  | "timeout" -> Some Timeout
  | _ -> None

exception Fail of failure

let fail ?spec_text kind detail = raise (Fail { kind; detail; spec_text })

(* Deterministic pseudo-random initial data: positive, bounded away from
   zero, different per array and per element.  Both programs of a
   verification pair use the same init, so only the identity of the function
   matters, not its distribution. *)
let init name idx =
  let h = ref 0 in
  String.iter (fun c -> h := ((!h * 131) + Char.code c) land 0xFFFFF) name;
  Array.iter (fun i -> h := ((!h * 131) + i + 7) land 0xFFFFF) idx;
  0.25 +. (float_of_int (!h mod 101) /. 101.0)

let first_line_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | x :: xs, y :: ys when String.equal x y -> go (i + 1) (xs, ys)
    | x :: _, y :: _ -> Printf.sprintf "line %d: %S vs %S" i x y
    | x :: _, [] -> Printf.sprintf "line %d: %S vs end of text" i x
    | [], y :: _ -> Printf.sprintf "line %d: end of text vs %S" i y
    | [], [] -> "texts equal"
  in
  go 1 (la, lb)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: xs -> x :: take (n - 1) xs

let enumerate cfg pipe =
  let prog = Pipeline.program pipe in
  take cfg.max_specs
    (Search.singles prog ~arrays:(Search.default_arrays prog)
       ~blockings:(fun array ->
         List.concat_map
           (fun size ->
             [ Blocking.blocks_2d ~array ~size;
               Blocking.blocks_2d_colmajor ~array ~size ])
           cfg.block_sizes))

(* 4th oracle layer: record/replay cache simulation vs the direct
   streaming path.  A tiny chunk size forces many flush boundaries.
   [Model.record]'s address-only execution must record [Brute.record]'s
   words, chunks and bytes (the enumerated accesses laid out through
   Store.offset) and count the value path's flops, and every
   (machine x quality) pair is replayed
   from ONE recording: the stored-trace [consume] path, which walks each
   machine once, must reproduce the direct [simulate] result, which
   streams the same walk in 256-word chunks, exactly (structural equality:
   every counter, level stat, and the closed-form cycle/MFlops floats).
   Both derive forwarding from the walk the same way; test_machine's
   per-access reference checks that derivation against real forwarding. *)
let variants =
  [ (Model.sp2_like, Model.untuned);
    (Model.sp2_like, Model.tuned);
    (Model.two_level, Model.untuned);
    (Model.two_level, Model.tuned) ]

let check_replay ?spec_text prog ~n =
  let params = [ ("N", n) ] in
  let failf fmt =
    Printf.ksprintf (fun detail -> fail ?spec_text Replay detail) fmt
  in
  let result_string r = Format.asprintf "%a" Model.pp_result r in
  let direct =
    List.map
      (fun (machine, quality) ->
        Model.simulate ~machine ~quality prog ~params ~init)
      variants
  in
  let recording =
    try Model.record ~chunk_words:64 prog ~params ~init
    with e -> failf "Model.record raised %s at N=%d" (Printexc.to_string e) n
  in
  let _, flops = Verify.run_program prog ~params ~init in
  if flops <> recording.Model.rec_flops then
    failf "Model.record counts %d flops, the value path %d, at N=%d"
      recording.Model.rec_flops flops n;
  let r = Trace.create_recorder ~chunk_words:64 () in
  Brute.record (Store.plan prog ~params) r prog ~params;
  let want = Trace.finish r and got = recording.Model.rec_trace in
  if
    not
      (Trace.equal want got
      && Trace.num_chunks want = Trace.num_chunks got
      && Trace.bytes want = Trace.bytes got)
  then
    failf
      "Model.record's trace (%d words, %d chunks, %d bytes) differs from \
       Brute.record's (%d words, %d chunks, %d bytes) at N=%d"
      (Trace.length got) (Trace.num_chunks got) (Trace.bytes got)
      (Trace.length want) (Trace.num_chunks want) (Trace.bytes want) n;
  List.iter2
    (fun (machine, quality) want ->
      let got = Model.consume ~machine ~quality recording in
      if got <> want then
        failf
          "consume(record) diverges from direct simulation at N=%d on %s/%s:\n\
           direct: %s\nreplay: %s"
          n machine.Model.m_name quality.Model.q_name (result_string want)
          (result_string got))
    variants direct

(* Bit-level store comparison shared by the par and stage layers: Int64
   bit patterns, so -0.0 vs 0.0 and NaN payloads count as divergence. *)
let stores_diverge a b =
  let arrs s =
    List.sort (fun (x : Store.arr) y -> compare x.Store.name y.Store.name)
      (Store.arrays s)
  in
  List.exists2
    (fun (x : Store.arr) (y : Store.arr) ->
      x.Store.name <> y.Store.name
      || Array.length x.Store.data <> Array.length y.Store.data
      ||
      let diverged = ref false in
      Array.iteri
        (fun i v ->
          if Int64.bits_of_float v <> Int64.bits_of_float y.Store.data.(i)
          then diverged := true)
        x.Store.data;
      !diverged)
    (arrs a) (arrs b)

(* 8th oracle layer: per-size specialization vs the symbolic program.
   [Loopir.Stages.specialize] substitutes the size parameters and re-runs
   the simplification stages; every stage's obligation is trace
   preservation, so the two end-to-end executions must agree bit for bit:
   stores as Int64 bit patterns, flop counts exactly, and the recorded
   access trace word for word including chunk accounting (a tiny chunk
   size forces many flush boundaries). *)
let check_stage ?spec_text prog ~ns =
  let failf fmt =
    Printf.ksprintf (fun detail -> fail ?spec_text Stage detail) fmt
  in
  List.iter
    (fun n ->
      let params = [ ("N", n) ] in
      let specialized =
        try Loopir.Stages.specialize ~params prog
        with e ->
          failf "Stages.specialize raised %s at N=%d" (Printexc.to_string e) n
      in
      let execute label p =
        match
          ( Verify.run_program p ~params ~init,
            Model.record ~chunk_words:64 p ~params ~init )
        with
        | (store, flops), recording -> (store, flops, recording.Model.rec_trace)
        | exception e ->
          failf "%s program raised %s at N=%d" label (Printexc.to_string e) n
      in
      let store_s, flops_s, trace_s = execute "symbolic" prog in
      let store_z, flops_z, trace_z = execute "specialized" specialized in
      if stores_diverge store_s store_z then
        failf "specialized store diverges from symbolic at N=%d" n;
      if flops_z <> flops_s then
        failf "specialized flop count %d <> symbolic %d at N=%d" flops_z
          flops_s n;
      if not (Trace.equal trace_z trace_s) then
        failf
          "specialized trace diverges from symbolic at N=%d (%d vs %d \
           accesses)"
          n (Trace.length trace_z) (Trace.length trace_s);
      if
        Trace.num_chunks trace_z <> Trace.num_chunks trace_s
        || Trace.bytes trace_z <> Trace.bytes trace_s
      then
        failf
          "specialized trace accounting diverges at N=%d: %d chunks/%d \
           bytes vs %d chunks/%d bytes"
          n (Trace.num_chunks trace_z) (Trace.bytes trace_z)
          (Trace.num_chunks trace_s) (Trace.bytes trace_s))
    ns;
  List.length ns

(* 9th oracle layer: analytic communication lower bounds vs the cache
   simulator.  The {!Bounds} analysis is sound for any execution order
   (and, given a spec, any order consistent with the spec's block
   partition), so its per-level miss bound must never exceed the
   simulated miss count of an actual execution — here the original
   program, and below the generated code of the first legal blocked
   variant, across every (machine x quality) pair.  Programs outside
   the affine class the analysis covers are skipped, not failed. *)
let check_bound ?spec_text ?spec ~sim_prog prog ~n =
  let params = [ ("N", n) ] in
  match Bounds.analyze ?spec ~params prog with
  | exception (Loopir.Domain.Not_affine _ | Failure _) -> 0
  | t ->
    let failf fmt =
      Printf.ksprintf (fun detail -> fail ?spec_text Bound detail) fmt
    in
    List.iter
      (fun (machine, quality) ->
        let r = Model.simulate ~machine ~quality sim_prog ~params ~init in
        List.iter2
          (fun lv (st : Model.level_stat) ->
            let b = Bounds.misses t lv in
            if st.Model.s_misses < b then
              failf
                "analytic bound says >= %d misses at %s of %s/%s, but the \
                 simulator counted %d at N=%d"
                b lv.Bounds.lv_name machine.Model.m_name quality.Model.q_name
                st.Model.s_misses n)
          (Tune.machine_levels machine) r.Model.r_levels)
      variants;
    List.length variants

(* 6th oracle layer: parallel block execution vs sequential.  The
   sequential value path provides the reference store and flop count, and
   [Model.record] the reference trace; the scheduler then executes the same
   variant's block-task DAG over 1, 2 and 3 workers.  Everything is
   compared at the bit level: stores word for word (Int64 bit patterns,
   so -0.0 vs 0.0 and NaN payloads count as divergence), the merged trace
   word for word including chunk accounting, and the flop count.  The
   shared-L2 multicore replay must also be a pure function of the plan —
   identical across worker counts.  A tiny chunk size forces many
   per-task recorder flushes through the deterministic merge. *)
let check_par ?spec_text pipe ~spec ~n ~domains_list =
  let params = [ ("N", n) ] in
  let failf fmt =
    Printf.ksprintf (fun detail -> fail ?spec_text Par detail) fmt
  in
  let prog = Pipeline.variant pipe spec in
  let seq_store, seq_flops = Verify.run_program prog ~params ~init in
  let seq_rec = Model.record ~chunk_words:64 prog ~params ~init in
  let plan =
    try Sched.plan pipe ~spec ~params
    with e -> failf "Sched.plan raised %s at N=%d" (Printexc.to_string e) n
  in
  let smp_reference = ref None in
  List.iter
    (fun domains ->
      let res =
        try Sched.exec ~domains ~chunk_words:64 plan ~init
        with e ->
          failf "Sched.exec raised %s at N=%d over %d domains"
            (Printexc.to_string e) n domains
      in
      let recording = res.Sched.x_recording in
      if stores_diverge seq_store res.Sched.x_store then
        failf
          "parallel store diverges from sequential at N=%d over %d domains \
           (%d tasks in %d levels)"
          n domains (Sched.tasks plan)
          (List.length (Sched.levels plan));
      if recording.Model.rec_flops <> seq_flops then
        failf "parallel flop count %d <> sequential %d at N=%d over %d domains"
          recording.Model.rec_flops seq_flops n domains;
      let tp = recording.Model.rec_trace and ts = seq_rec.Model.rec_trace in
      if not (Trace.equal tp ts) then
        failf
          "merged parallel trace diverges from sequential at N=%d over %d \
           domains (%d vs %d accesses)"
          n domains (Trace.length tp) (Trace.length ts);
      if
        Trace.num_chunks tp <> Trace.num_chunks ts
        || Trace.bytes tp <> Trace.bytes ts
      then
        failf
          "merged trace accounting diverges at N=%d over %d domains: %d \
           chunks/%d bytes vs %d chunks/%d bytes"
          n domains (Trace.num_chunks tp) (Trace.bytes tp)
          (Trace.num_chunks ts) (Trace.bytes ts);
      let smp = Sched.smp ~cores:2 plan res in
      match !smp_reference with
      | None -> smp_reference := Some (domains, smp)
      | Some (d0, smp0) ->
        if smp <> smp0 then
          failf
            "shared-L2 multicore replay differs between %d and %d domains at \
             N=%d"
            d0 domains n)
    domains_list;
  List.length domains_list

let check_exn hooks ~budget cfg prog =
  (* 1. the printed text is a fixpoint of print-parse-print — the parse
     goes through the Pipeline facade, which also gives us the memoizing
     solver context every later layer charges its Omega queries to; the
     context carries this run's budget, so every legality query below is
     bounded *)
  let s = Ast.program_to_string prog in
  let pipe =
    match Pipeline.parse ~solver:(solver_of_budget budget) s with
    | Ok pipe -> pipe
    | Error msg -> fail Roundtrip (Printf.sprintf "parse error at %s" msg)
  in
  let s' = Ast.program_to_string (Pipeline.program pipe) in
  if not (String.equal s s') then
    fail Roundtrip ("print-parse-print is not a fixpoint: " ^ first_line_diff s s');
  let prog = Pipeline.program pipe in
  let deps_sym = Pipeline.deps pipe in
  let deps_n =
    List.map (fun n -> (n, Pipeline.deps_at pipe ~params:[ ("N", n) ])) cfg.ns
  in
  let baselines = Hashtbl.create 4 in
  let baseline n =
    match Hashtbl.find_opt baselines n with
    | Some b -> b
    | None ->
      let store, _ = Pipeline.run pipe ~params:[ ("N", n) ] ~init in
      let maxabs =
        List.fold_left
          (fun m (a : Store.arr) ->
            Array.fold_left (fun m x -> Float.max m (Float.abs x)) m a.Store.data)
          0.0 (Store.arrays store)
      in
      Hashtbl.add baselines n (store, maxabs);
      (store, maxabs)
  in
  (* 4. record/replay equivalence on the original program, plus (below)
     the first legal blocked variant — once each, at the smallest
     verification size, to bound the per-program cost *)
  let replay_n = List.hd cfg.verify_ns in
  check_replay prog ~n:replay_n;
  let replayed_blocked = ref false in
  let stats = ref zero_stats in
  (* 6, 8 and 9: parallel execution, specialization and analytic-bound
     equivalence — on the original program here, and on the first legal
     blocked variant below, once each like the replay layer, to bound the
     per-program cost.  The blocked variant carries the real weight:
     specialization simplifies its block bounds, min/max envelopes and
     degenerate loops, and the windowed per-spec bound engages there. *)
  let check_variant ?spec_text ?spec ~sim_prog () =
    let par =
      check_par ?spec_text pipe ~spec ~n:replay_n ~domains_list:[ 1; 2; 3 ]
    in
    let stage = check_stage ?spec_text sim_prog ~ns:cfg.verify_ns in
    let bound = check_bound ?spec_text ?spec ~sim_prog prog ~n:replay_n in
    stats :=
      { !stats with
        par_checked = !stats.par_checked + par;
        stage_checked = !stats.stage_checked + stage;
        bound_checked = !stats.bound_checked + bound }
  in
  check_variant ~sim_prog:prog ();
  let check_spec spec =
    let st = lazy (Format.asprintf "%a" Spec.pp spec) in
    let failf ?(with_spec = true) kind fmt =
      Printf.ksprintf
        (fun detail ->
          fail ?spec_text:(if with_spec then Some (Lazy.force st) else None) kind detail)
        fmt
    in
    Runner.check ();
    stats := { !stats with specs = !stats.specs + 1 };
    (* 2. legality: symbolic and per-N verdicts vs exhaustive enumeration.
       An [Unknown] verdict is a budget artifact, not a bug: it is counted
       in [gave_up], excluded from the differential comparison (a starved
       checker is allowed to reject anything), and treated as illegal
       downstream — the conservative collapse. *)
    let record_gave_up () =
      stats := { !stats with gave_up = !stats.gave_up + 1 }
    in
    let sym = hooks.legality pipe spec ~deps:deps_sym in
    (match sym with
    | Verdict.Unknown _ -> record_gave_up ()
    | Verdict.Legal | Verdict.Illegal _ -> ());
    List.iter
      (fun (n, dn) ->
        let brute = Brute.first_violation prog spec ~params:[ ("N", n) ] in
        (match hooks.legality pipe spec ~deps:dn with
        | Verdict.Unknown _ -> record_gave_up ()
        | Verdict.Legal -> (
          match brute with
          | Some (src, dst) ->
            failf Legality
              "checker says legal at N=%d, but [%s] then [%s] touch the same element with block order inverted"
              n (Brute.access_string src) (Brute.access_string dst)
          | None -> ())
        | Verdict.Illegal _ ->
          if brute = None then
            failf Legality
              "checker says illegal at N=%d, but exhaustive enumeration finds no violated pair"
              n);
        match brute with
        | Some (src, dst) when Verdict.is_legal sym ->
          failf Legality
            "symbolic verdict is legal, but at N=%d [%s] then [%s] invert the block order"
            n (Brute.access_string src) (Brute.access_string dst)
        | _ -> ())
      deps_n;
    (* 3. codegen: legal specs must preserve the computed store *)
    if Verdict.is_legal sym then begin
      stats := { !stats with legal_specs = !stats.legal_specs + 1 };
      let blocked =
        try Pipeline.codegen pipe spec
        with e -> failf Codegen "Pipeline.codegen raised %s" (Printexc.to_string e)
      in
      if not !replayed_blocked then begin
        replayed_blocked := true;
        check_replay ~spec_text:(Lazy.force st) blocked ~n:replay_n;
        check_variant ~spec_text:(Lazy.force st) ~spec ~sim_prog:blocked ()
      end;
      List.iter
        (fun n ->
          let base, maxabs = baseline n in
          if (not (Float.is_finite maxabs)) || maxabs > 1e12 then
            stats := { !stats with skipped = !stats.skipped + 1 }
          else begin
            let blk, _ =
              try Verify.run_program blocked ~params:[ ("N", n) ] ~init
              with e ->
                failf Codegen "blocked program raised %s at N=%d"
                  (Printexc.to_string e) n
            in
            let diff = Store.max_abs_diff base blk in
            let tol = 1e-7 *. (1.0 +. maxabs) in
            if not (diff <= tol) then
              failf Codegen
                "blocked program differs from original at N=%d: max |diff| = %g (tol %g)"
                n diff tol;
            stats := { !stats with verified = !stats.verified + 1 }
          end)
        cfg.verify_ns;
      true
    end
    else false
  in
  let specs = enumerate cfg pipe in
  let legal = List.filter check_spec specs in
  (* a two-factor product exercises lexicographic concatenation of block
     coordinate vectors (Section 6 of the paper) *)
  (match legal with
  | s1 :: s2 :: _ -> ignore (check_spec (Spec.product s1 s2))
  | _ -> ());
  (* 5. tuner layer: the memoized and cache-less solver contexts must
     agree on every legality verdict of the program's spec lattice.
     Skipped on fuel-bounded runs: the consistency property only holds
     for exact verdicts, and a starved run would compare two artifacts. *)
  if budget.fuel = None && budget.starve_after = None then begin
    Runner.check ();
    match Tune.consistency_step ~sizes:cfg.block_sizes prog with
    | Ok n -> stats := { !stats with tune_checked = !stats.tune_checked + n }
    | Error msg -> fail Tune msg
  end;
  (* 7. wire-protocol layer: a seeded mutation storm against an in-process
     daemon serving this very program — the session must stay total,
     structured and deterministic whatever bytes arrive.  The storm seed
     derives from the program text, so a seed's storm is reproducible
     without threading campaign state here. *)
  Runner.check ();
  (match Wire.storm ~seed:(Hashtbl.hash s) prog with
  | Ok (n, chaos) ->
    stats :=
      { !stats with
        wire_checked = !stats.wire_checked + n;
        chaos_checked = !stats.chaos_checked + chaos }
  | Error msg -> fail Wire msg);
  Ok !stats

(* An expired deadline is not a verdict on the program: the supervisor
   turns [Runner.Expired] into the task's [Timed_out] outcome.  Every
   layer's solver queries run under that deadline and give up past it,
   so a layer that failed after it may have failed because of it: the
   deadline is checked before a failure is reported. *)
let check ?(hooks = default_hooks) ?(budget = no_budget) cfg prog =
  try check_exn hooks ~budget cfg prog with
  | Runner.Expired -> raise Runner.Expired
  | e -> (
    Runner.check ();
    match e with
    | Fail f -> Error f
    | e ->
      Error { kind = Crash; detail = Printexc.to_string e; spec_text = None })
