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
   levels.  A worker exception must abort the run and re-raise. *)

module K = Kernels.Builders
module Specs = Experiments.Specs
module Spec = Shackle.Spec
module Blocking = Shackle.Blocking
module Store = Exec.Store
module Model = Machine.Model

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

(* One sequential reference against scheduler executions over each worker
   count; a small chunk size forces several flush boundaries through the
   deterministic merge. *)
let check_par_eq ?layouts ~what pipe ~spec ~params ~init =
  let seq_rec, seq_store =
    Pipeline.record_full ?layouts ~chunk_words:128 ?spec pipe ~params ~init
  in
  let plan = Sched.plan pipe ~spec ~params in
  List.iter
    (fun domains ->
      let label fmt =
        Printf.sprintf "%s (domains=%d): %s" what domains fmt
      in
      let recording, res =
        Sched.record ?layouts ~domains ~chunk_words:128 plan ~init
      in
      Alcotest.(check bool)
        (label "store bits") true
        (stores_bit_equal seq_store res.Sched.x_store);
      Alcotest.(check int)
        (label "flops") seq_rec.Model.rec_flops recording.Model.rec_flops;
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

let test_smp_deterministic () =
  let pipe, spec, plan = diamond_pipe_plan ~n:8 in
  ignore pipe;
  ignore spec;
  let r1 = Sched.exec ~domains:1 ~trace:true plan ~init:init_hash in
  let r3 = Sched.exec ~domains:3 ~trace:true plan ~init:init_hash in
  let s1 = Sched.smp ~cores:2 plan r1 in
  let s3 = Sched.smp ~cores:2 plan r3 in
  Alcotest.(check bool) "smp replay is a pure function of the plan" true
    (s1 = s3);
  Alcotest.(check int) "two virtual cores" 2 s1.Model.Smp.p_cores;
  Alcotest.(check int) "replay sees every flop" r1.Sched.x_flops
    s1.Model.Smp.p_flops;
  Alcotest.(check bool) "makespan is positive" true
    (s1.Model.Smp.p_cycles > 0.0)

let () =
  Alcotest.run "sched"
    [ ( "plan",
        [ Alcotest.test_case "single task" `Quick test_single_task;
          Alcotest.test_case "serial chain" `Quick test_serial_chain;
          Alcotest.test_case "diamond wavefront" `Quick
            test_diamond_wavefront;
          Alcotest.test_case "steal cholesky" `Quick test_fully_blocked_cholesky;
          Alcotest.test_case "left-looking cholesky" `Quick
            test_left_looking_cholesky;
          Alcotest.test_case "banded cholesky" `Quick test_banded_cholesky;
          Alcotest.test_case "matmul product" `Quick test_matmul_product ] );
      ( "exec",
        [ Alcotest.test_case "worker exception" `Quick test_worker_exception;
          Alcotest.test_case "smp deterministic" `Quick
            test_smp_deterministic ] ) ]
