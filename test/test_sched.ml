(* The dependence-aware block scheduler: plan shape on known DAGs and
   bit-exact par=seq equivalence.

   The load-bearing property is determinism: for any worker count the
   final store (as Int64 bit patterns), the flop count, and the merged
   access trace (word for word, including chunk accounting) must equal
   one sequential execution of the same variant.  Every plan below runs
   at 1, 2 and 4 workers, among them the fully blocked, left-looking
   (fig11's LAPACK-style series) and banded (fig15's band storage)
   Cholesky variants.  The plan-shape tests pin the layering: one level
   for an unshackled program, one level per block for a serial chain, the
   anti-diagonals for the diamond recurrence, and blocked Cholesky's
   levels.  A worker exception must abort the run and re-raise.  The
   shared-L2 multicore replay must equal a per-access reference walk kept
   here, bit for bit, on machines small enough that the interleave of the
   cores' streams moves the shared level's counters. *)

module K = Kernels.Builders
module Specs = Experiments.Specs
module Spec = Shackle.Spec
module Blocking = Shackle.Blocking
module Store = Exec.Store
module Model = Machine.Model
module Cache = Machine.Cache

let init_hash name idx =
  let h = ref 0 in
  String.iter (fun c -> h := ((!h * 131) + Char.code c) land 0xFFFFF) name;
  Array.iter (fun i -> h := ((!h * 131) + i + 7) land 0xFFFFF) idx;
  0.25 +. (float_of_int (!h mod 101) /. 101.0)

let parse_prog text =
  match Pipeline.parse text with
  | Ok pipe -> pipe
  | Error msg -> Alcotest.failf "parse: %s" msg

(* First legal single-factor spec of [blocking] over the one-statement
   program's reference choices. *)
let first_legal_spec pipe ~array blocking =
  let specs =
    List.map
      (fun choices -> [ Spec.factor blocking choices ])
      (Pipeline.choices pipe ~array)
  in
  match List.find_opt (Pipeline.is_legal pipe) specs with
  | Some s -> s
  | None -> Alcotest.fail "no legal spec for the test blocking"

let stores_bit_equal a b =
  let arrs s =
    List.sort (fun (x : Store.arr) y -> compare x.Store.name y.Store.name)
      (Store.arrays s)
  in
  List.for_all2
    (fun (x : Store.arr) (y : Store.arr) ->
      String.equal x.Store.name y.Store.name
      && Array.length x.Store.data = Array.length y.Store.data
      && begin
           let ok = ref true in
           Array.iteri
             (fun i v ->
               if Int64.bits_of_float v <> Int64.bits_of_float y.Store.data.(i)
               then ok := false)
             x.Store.data;
           !ok
         end)
    (arrs a) (arrs b)

(* One sequential reference (the value path's store and flops, and
   Model.record's trace) against scheduler executions over each worker
   count; a small chunk size forces several flush boundaries through the
   deterministic merge. *)
let check_par_eq ?layouts ~what pipe ~spec ~params ~init =
  let prog = Pipeline.variant pipe spec in
  let seq_store, seq_flops = Exec.Verify.run_program ?layouts prog ~params ~init in
  let seq_rec = Model.record ?layouts ~chunk_words:128 prog ~params ~init in
  let plan = Sched.plan pipe ~spec ~params in
  List.iter
    (fun domains ->
      let label fmt =
        Printf.sprintf "%s (domains=%d): %s" what domains fmt
      in
      let res = Sched.exec ?layouts ~domains ~chunk_words:128 plan ~init in
      let recording = res.Sched.x_recording in
      Alcotest.(check bool)
        (label "store bits") true
        (stores_bit_equal seq_store res.Sched.x_store);
      Alcotest.(check int)
        (label "flops") seq_flops recording.Model.rec_flops;
      let tp = recording.Model.rec_trace and ts = seq_rec.Model.rec_trace in
      Alcotest.(check bool) (label "trace words") true (Trace.equal tp ts);
      Alcotest.(check int)
        (label "trace chunks") (Trace.num_chunks ts) (Trace.num_chunks tp);
      Alcotest.(check int) (label "trace bytes") (Trace.bytes ts)
        (Trace.bytes tp))
    [ 1; 2; 4 ];
  plan

(* ------------------------------------------------------------------ *)
(* Plan shape                                                          *)
(* ------------------------------------------------------------------ *)

(* A real DAG (not the fallback chain) of the given size, depth and
   widest level. *)
let check_shape ~what plan ~tasks ~levels ~width =
  Alcotest.(check int) (what ^ ": tasks") tasks (Sched.tasks plan);
  Alcotest.(check int) (what ^ ": levels") levels
    (List.length (Sched.levels plan));
  Alcotest.(check int) (what ^ ": max width") width (Sched.max_width plan);
  Alcotest.(check bool) (what ^ ": not serialized") false
    (Sched.serialized plan)

let test_single_task () =
  let pipe = Pipeline.create (K.matmul ()) in
  let plan =
    check_par_eq ~what:"unshackled matmul" pipe ~spec:None
      ~params:[ ("N", 6) ]
      ~init:(Kernels.Inits.for_kernel "matmul" ~n:6)
  in
  Alcotest.(check int) "one task" 1 (Sched.tasks plan);
  Alcotest.(check int) "no edges" 0 (Sched.edges plan);
  Alcotest.(check (list (list int))) "one level" [ [ 0 ] ] (Sched.levels plan)

let chain_text =
  "! chain (params: N)\nreal A(N)\ndo i = 2, N\n  S1: A(i) = A(i) + A(i - \
   1)\nend do\n"

let test_serial_chain () =
  let pipe = parse_prog chain_text in
  let blocking =
    Blocking.make ~array:"A" ~rank:1
      [ { Blocking.normal = [ 1 ]; width = 2; offset = 0 } ]
  in
  let spec = first_legal_spec pipe ~array:"A" blocking in
  let plan =
    check_par_eq ~what:"serial chain" pipe ~spec:(Some spec)
      ~params:[ ("N", 16) ] ~init:init_hash
  in
  Alcotest.(check int) "eight blocks" 8 (Sched.tasks plan);
  Alcotest.(check int) "a chain of edges" 7 (Sched.edges plan);
  Alcotest.(check int) "serial: every level width 1" 1 (Sched.max_width plan);
  Alcotest.(check int) "one level per task" (Sched.tasks plan)
    (List.length (Sched.levels plan));
  Alcotest.(check bool) "real DAG, not the fallback chain" false
    (Sched.serialized plan)

let diamond_text =
  "! diamond (params: N)\nreal A(N, N)\ndo i = 2, N\n  do j = 2, N\n    S1: \
   A(i, j) = A(i - 1, j) + A(i, j - 1)\n  end do\nend do\n"

let diamond_pipe_plan ~n =
  let pipe = parse_prog diamond_text in
  let spec =
    first_legal_spec pipe ~array:"A" (Blocking.blocks_2d ~array:"A" ~size:2)
  in
  (pipe, spec, Sched.plan pipe ~spec:(Some spec) ~params:[ ("N", n) ])

let test_diamond_wavefront () =
  let pipe, spec, plan = diamond_pipe_plan ~n:8 in
  (* a 4x4 block grid in 7 anti-diagonals, the widest of 4 blocks *)
  check_shape ~what:"diamond" plan ~tasks:16 ~levels:7 ~width:4;
  ignore
    (check_par_eq ~what:"diamond" pipe ~spec:(Some spec)
       ~params:[ ("N", 8) ] ~init:init_hash)

let test_fully_blocked_cholesky () =
  let pipe = Pipeline.create (K.cholesky_right ()) in
  let spec = Specs.cholesky_fully_blocked ~size:8 in
  let plan =
    check_par_eq ~what:"blocked cholesky" pipe ~spec:(Some spec)
      ~params:[ ("N", 24) ]
      ~init:(Kernels.Inits.for_kernel "cholesky_right" ~n:24)
  in
  check_shape ~what:"fully blocked" plan ~tasks:25 ~levels:9 ~width:5

let test_left_looking_cholesky () =
  let pipe = Pipeline.create (K.cholesky_right ()) in
  let spec = Specs.cholesky_left_looking_blocked ~size:8 in
  let plan =
    check_par_eq ~what:"left-looking cholesky" pipe ~spec:(Some spec)
      ~params:[ ("N", 24) ]
      ~init:(Kernels.Inits.for_kernel "cholesky_right" ~n:24)
  in
  check_shape ~what:"left-looking" plan ~tasks:14 ~levels:7 ~width:3

let test_banded_cholesky () =
  let n = 24 and bw = 8 in
  let pipe = Pipeline.create (K.cholesky_banded ()) in
  let spec = Specs.cholesky_banded_write ~size:4 in
  let dense = Kernels.Inits.for_kernel "cholesky_banded" ~n in
  let plan =
    check_par_eq ~what:"banded cholesky"
      ~layouts:[ ("A", Store.Banded bw) ]
      pipe ~spec:(Some spec)
      ~params:[ ("N", n); ("BW", bw) ]
      ~init:(fun name idx ->
        if abs (idx.(0) - idx.(1)) > bw then 0.0 else dense name idx)
  in
  check_shape ~what:"banded" plan ~tasks:15 ~levels:11 ~width:2

let test_matmul_product () =
  let pipe = Pipeline.create (K.matmul ()) in
  let spec = Specs.matmul_ca ~size:4 in
  ignore
    (check_par_eq ~what:"matmul C x A product" pipe ~spec:(Some spec)
       ~params:[ ("N", 8) ]
       ~init:(Kernels.Inits.for_kernel "matmul" ~n:8))

(* ------------------------------------------------------------------ *)
(* Failure propagation and the multicore replay                        *)
(* ------------------------------------------------------------------ *)

(* A banded layout makes the diamond's below-diagonal reads out of range,
   so a worker raises Invalid_argument partway through a level; the
   run must abort and re-raise the original exception. *)
let test_worker_exception () =
  let _, _, plan = diamond_pipe_plan ~n:8 in
  match
    Sched.exec
      ~layouts:[ ("A", Store.Banded 8) ]
      ~domains:2 plan
      ~init:(fun _ _ -> 1.0)
  with
  | _ -> Alcotest.fail "out-of-band access did not raise"
  | exception Invalid_argument _ -> ()

(* Equal results, their floats compared bit for bit. *)
let result_t =
  let bits x = Int64.bits_of_float x in
  Alcotest.testable Model.pp_result (fun (a : Model.result) b ->
      { a with r_cycles = 0.0; r_mflops = 0.0 }
      = { b with r_cycles = 0.0; r_mflops = 0.0 }
      && bits a.r_cycles = bits b.r_cycles
      && bits a.r_mflops = bits b.r_mflops)

let test_smp_deterministic () =
  let _, _, plan = diamond_pipe_plan ~n:8 in
  let r1 = Sched.exec ~domains:1 plan ~init:init_hash in
  let r3 = Sched.exec ~domains:3 plan ~init:init_hash in
  let s1 = Sched.smp ~cores:2 plan r1 in
  let s3 = Sched.smp ~cores:2 plan r3 in
  Alcotest.check result_t "smp replay is a pure function of the plan" s1 s3;
  Alcotest.(check int) "replay sees every flop"
    r1.Sched.x_recording.Model.rec_flops s1.Model.r_flops;
  Alcotest.(check bool) "makespan is positive" true (s1.Model.r_cycles > 0.0)

(* With one core the multicore replay walks the tasks' traces level by
   level with nothing to interleave, so it must equal the uniprocessor
   replay of those traces concatenated in level order, as a whole result
   with the closed-form cycles and MFlops bit for bit, on both
   hierarchies at both qualities. *)
let test_smp_one_core_is_consume () =
  let plans =
    [ (let _, _, plan = diamond_pipe_plan ~n:8 in
       ("diamond", plan, init_hash));
      ( "blocked cholesky",
        Sched.plan
          (Pipeline.create (K.cholesky_right ()))
          ~spec:(Some (Specs.cholesky_fully_blocked ~size:8))
          ~params:[ ("N", 24) ],
        Kernels.Inits.for_kernel "cholesky_right" ~n:24 ) ]
  in
  List.iter
    (fun (what, plan, init) ->
      let r = Sched.exec plan ~init in
      let in_level_order =
        List.map (fun t -> r.Sched.x_parts.(t)) (List.concat (Sched.levels plan))
      in
      let recording =
        Model.recording (Trace.concat in_level_order)
          ~flops:r.Sched.x_recording.Model.rec_flops
      in
      List.iter
        (fun (machine, quality) ->
          Alcotest.check result_t
            (Printf.sprintf "%s on %s/%s" what machine.Model.m_name
               quality.Model.q_name)
            (Model.consume ~machine ~quality recording)
            (Model.Smp.consume ~machine ~quality ~cores:1
               ~groups:(Sched.levels plan) ~parts:r.Sched.x_parts
               ~task_flops:r.Sched.x_task_flops))
        [ (Model.sp2_like, Model.untuned);
          (Model.sp2_like, Model.tuned);
          (Model.two_level, Model.untuned);
          (Model.two_level, Model.tuned) ])
    plans

(* The multicore replay one access at a time: within each group, tasks
   go to cores round-robin and the cores' streams advance 64 words per
   turn, core 0 first; a forwarding quality skips each word that repeats
   its core's previous address, every other word probes the core's own
   first level and then the shared levels, and each core's cycles are
   summed from its own hits, memory misses, flops and instances. *)
let smp_reference ~(machine : Model.t) ~(quality : Model.quality) ~cores
    ~groups ~parts ~task_flops =
  let first, shared_specs =
    match machine.levels with
    | [] -> Alcotest.fail "no cache level"
    | l :: rest -> (l, Array.of_list rest)
  in
  let l1 = Array.init cores (fun _ -> Cache.create first.l_cache) in
  let shared = Array.map (fun l -> Cache.create l.Model.l_cache) shared_specs in
  let nshared = Array.length shared in
  let accesses = Array.make cores 0 and instances = Array.make cores 0 in
  let last_addr = Array.make cores min_int in
  let shared_hits = Array.make_matrix cores nshared 0 in
  let mem_misses = Array.make cores 0 and flops = Array.make cores 0 in
  let access core w =
    let addr = Trace.word_addr w in
    if Trace.word_is_write w then instances.(core) <- instances.(core) + 1;
    if not (quality.forwarding && addr = last_addr.(core)) then begin
      accesses.(core) <- accesses.(core) + 1;
      last_addr.(core) <- addr;
      let byte = addr * machine.elem_bytes in
      if not (Cache.access l1.(core) byte) then begin
        let i = ref 0 in
        while !i < nshared && not (Cache.access shared.(!i) byte) do
          incr i
        done;
        if !i = nshared then mem_misses.(core) <- mem_misses.(core) + 1
        else shared_hits.(core).(!i) <- shared_hits.(core).(!i) + 1
      end
    end
  in
  List.iter
    (fun tasks ->
      let streams = Array.make cores [] in
      List.iteri
        (fun i t ->
          let core = i mod cores in
          flops.(core) <- flops.(core) + task_flops.(t);
          Trace.iter_chunks parts.(t) (fun buf len ->
              for k = 0 to len - 1 do
                streams.(core) <- buf.(k) :: streams.(core)
              done))
        tasks;
      let words = Array.map (fun ws -> Array.of_list (List.rev ws)) streams in
      let pos = Array.make cores 0 in
      while Array.exists2 (fun ws p -> p < Array.length ws) words pos do
        for core = 0 to cores - 1 do
          let stop = min (Array.length words.(core)) (pos.(core) + 64) in
          for k = pos.(core) to stop - 1 do
            access core words.(core).(k)
          done;
          pos.(core) <- stop
        done
      done)
    groups;
  let core_cycles =
    Array.init cores (fun c ->
        let hier = ref (float_of_int (Cache.hits l1.(c)) *. first.l_hit_cycles) in
        Array.iteri
          (fun i (l : Model.level_spec) ->
            hier := !hier +. (float_of_int shared_hits.(c).(i) *. l.l_hit_cycles))
          shared_specs;
        (float_of_int flops.(c) *. machine.flop_cycles)
        +. !hier
        +. (float_of_int mem_misses.(c) *. machine.mem_cycles)
        +. (quality.overhead *. float_of_int instances.(c)))
  in
  let makespan = Array.fold_left Float.max 0.0 core_cycles in
  let sum f xs = Array.fold_left (fun acc x -> acc + f x) 0 xs in
  let stat name caches =
    { Model.s_name = name;
      s_accesses = sum Cache.accesses caches;
      s_hits = sum Cache.hits caches;
      s_misses = sum Cache.misses caches;
      s_evictions = sum Cache.evictions caches }
  in
  let total_flops = sum Fun.id flops in
  { Model.r_flops = total_flops;
    r_instances = sum Fun.id instances;
    r_accesses = sum Fun.id accesses;
    r_levels =
      stat first.l_name l1
      :: Array.to_list
           (Array.mapi (fun i c -> stat shared_specs.(i).l_name [| c |]) shared);
    r_cycles = makespan;
    r_mflops =
      (if makespan = 0.0 then 0.0
       else
         float_of_int total_flops /. 1e6
         /. (makespan /. (machine.clock_mhz *. 1e6))) }

(* Small enough that the test plans' working sets overflow the shared
   level, so the order in which the cores' streams interleave moves its
   counters. *)
let tiny_shared =
  { Model.m_name = "tiny-shared";
    levels =
      [ { l_name = "L1";
          l_cache = { Cache.size_bytes = 512; line_bytes = 32; assoc = 2 };
          l_hit_cycles = 1.0 };
        { l_name = "L2";
          l_cache = { Cache.size_bytes = 2048; line_bytes = 32; assoc = 4 };
          l_hit_cycles = 8.0 } ];
    mem_cycles = 60.0;
    flop_cycles = 0.5;
    clock_mhz = 66.0;
    elem_bytes = 8 }

(* The multicore replay equals the per-access reference as a whole result
   on every machine at both qualities, over several core counts. *)
let test_smp_reference () =
  let diamond n =
    let _, _, plan = diamond_pipe_plan ~n in
    (Printf.sprintf "diamond N=%d" n, plan, init_hash)
  in
  let blocked what kernel ~name spec n =
    ( what,
      Sched.plan (Pipeline.create kernel) ~spec:(Some spec)
        ~params:[ ("N", n) ],
      Kernels.Inits.for_kernel name ~n )
  in
  let plans =
    [ diamond 8;
      diamond 20;
      blocked "fully blocked cholesky" (K.cholesky_right ())
        ~name:"cholesky_right"
        (Specs.cholesky_fully_blocked ~size:8)
        24;
      blocked "left-looking cholesky" (K.cholesky_right ())
        ~name:"cholesky_right"
        (Specs.cholesky_left_looking_blocked ~size:8)
        40;
      blocked "matmul C x A" (K.matmul ()) ~name:"matmul"
        (Specs.matmul_ca ~size:4) 16 ]
  in
  let machines =
    [ Model.sp2_like;
      Model.two_level;
      List.assoc "small-cache" Model.machines;
      tiny_shared ]
  in
  List.iter
    (fun (what, plan, init) ->
      let r = Sched.exec plan ~init in
      List.iter
        (fun machine ->
          List.iter
            (fun quality ->
              List.iter
                (fun cores ->
                  let replay consume =
                    consume ~machine ~quality ~cores ~groups:(Sched.levels plan)
                      ~parts:r.Sched.x_parts ~task_flops:r.Sched.x_task_flops
                  in
                  Alcotest.check result_t
                    (Printf.sprintf "%s on %s/%s, %d cores" what
                       machine.Model.m_name quality.Model.q_name cores)
                    (replay smp_reference) (replay Model.Smp.consume))
                [ 1; 2; 3; 4; 7 ])
            [ Model.untuned; Model.tuned ])
        machines)
    plans

let () =
  Alcotest.run "sched"
    [ ( "plan",
        [ Alcotest.test_case "single task" `Quick test_single_task;
          Alcotest.test_case "serial chain" `Quick test_serial_chain;
          Alcotest.test_case "diamond wavefront" `Quick
            test_diamond_wavefront;
          Alcotest.test_case "fully blocked cholesky" `Quick
            test_fully_blocked_cholesky;
          Alcotest.test_case "left-looking cholesky" `Quick
            test_left_looking_cholesky;
          Alcotest.test_case "banded cholesky" `Quick test_banded_cholesky;
          Alcotest.test_case "matmul product" `Quick test_matmul_product ] );
      ( "exec",
        [ Alcotest.test_case "worker exception" `Quick test_worker_exception;
          Alcotest.test_case "smp deterministic" `Quick
            test_smp_deterministic;
          Alcotest.test_case "smp on one core = consume" `Quick
            test_smp_one_core_is_consume;
          Alcotest.test_case "smp = per-access reference" `Quick
            test_smp_reference ] ) ]
