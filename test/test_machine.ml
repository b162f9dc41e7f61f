(* Tests for the memory-hierarchy simulator and the control-centric tiling
   baseline. *)

module Cache = Machine.Cache
module Model = Machine.Model
module K = Kernels.Builders
module E = Loopir.Expr
module Fexpr = Loopir.Fexpr
module Spec = Shackle.Spec
module Blocking = Shackle.Blocking

let v = E.var
let rf a idx = Fexpr.ref_ a (List.map v idx)

(* --- single cache level --- *)

let test_cache_basics () =
  let c = Cache.create { Cache.size_bytes = 1024; line_bytes = 64; assoc = 2 } in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit same line" true (Cache.access c 8);
  Alcotest.(check bool) "hit line end" true (Cache.access c 63);
  Alcotest.(check bool) "next line misses" false (Cache.access c 64);
  Alcotest.(check int) "accesses" 4 (Cache.accesses c);
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let test_cache_lru_eviction () =
  (* 2-way, 8 sets of 64B lines: addresses 0, 1024, 2048 map to set 0 *)
  let c = Cache.create { Cache.size_bytes = 1024; line_bytes = 64; assoc = 2 } in
  ignore (Cache.access c 0);
  ignore (Cache.access c 1024);
  Alcotest.(check bool) "both ways resident" true (Cache.access c 0);
  ignore (Cache.access c 2048); (* evicts 1024 (LRU) *)
  Alcotest.(check bool) "0 survives" true (Cache.access c 0);
  Alcotest.(check bool) "1024 evicted" false (Cache.access c 1024)

let test_cache_direct_mapped () =
  let c = Cache.create { Cache.size_bytes = 512; line_bytes = 64; assoc = 1 } in
  ignore (Cache.access c 0);
  ignore (Cache.access c 512); (* same set, conflict *)
  Alcotest.(check bool) "conflict evicts" false (Cache.access c 0)

let test_cache_eviction_count () =
  let c = Cache.create { Cache.size_bytes = 1024; line_bytes = 64; assoc = 2 } in
  (* cold fills into empty ways are misses but not evictions *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 1024);
  Alcotest.(check int) "cold fills don't evict" 0 (Cache.evictions c);
  ignore (Cache.access c 2048); (* set 0 full: displaces the LRU line *)
  Alcotest.(check int) "conflict evicts" 1 (Cache.evictions c);
  ignore (Cache.access c 2048); (* hit: no eviction *)
  Alcotest.(check int) "hits don't evict" 1 (Cache.evictions c);
  Cache.reset c;
  Alcotest.(check int) "reset zeroes evictions" 0 (Cache.evictions c)

let test_cache_full_capacity () =
  let c = Cache.create { Cache.size_bytes = 1024; line_bytes = 64; assoc = 2 } in
  (* touch 16 distinct lines = exactly capacity; all should be resident *)
  for i = 0 to 15 do
    ignore (Cache.access c (i * 64))
  done;
  let hits_before = Cache.hits c in
  for i = 0 to 15 do
    ignore (Cache.access c (i * 64))
  done;
  Alcotest.(check int) "all resident" (hits_before + 16) (Cache.hits c)

let test_cache_reset () =
  let c = Cache.create { Cache.size_bytes = 1024; line_bytes = 64; assoc = 2 } in
  ignore (Cache.access c 0);
  Cache.reset c;
  Alcotest.(check int) "zeroed" 0 (Cache.accesses c);
  Alcotest.(check bool) "cold again" false (Cache.access c 0)

let test_cache_geometry_checks () =
  List.iter
    (fun cfg ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (Cache.create cfg);
           false
         with Invalid_argument _ -> true))
    [ { Cache.size_bytes = 1000; line_bytes = 60; assoc = 2 };
      { Cache.size_bytes = 128; line_bytes = 64; assoc = 3 };
      { Cache.size_bytes = 64; line_bytes = 64; assoc = 0 } ]

(* A tiny reference LRU cache (list of resident lines, most recent first)
   used as an oracle for the positional set-associative implementation. *)
let reference_lru cfg addrs =
  let nsets = cfg.Cache.size_bytes / cfg.Cache.line_bytes / cfg.Cache.assoc in
  let sets = Array.make nsets [] in
  List.map
    (fun addr ->
      let line = addr / cfg.Cache.line_bytes in
      let set = line mod nsets in
      let resident = sets.(set) in
      let hit = List.mem line resident in
      let without = List.filter (fun l -> l <> line) resident in
      let trimmed =
        if List.length without >= cfg.Cache.assoc then
          List.filteri (fun i _ -> i < cfg.Cache.assoc - 1) without
        else without
      in
      sets.(set) <- line :: trimmed;
      hit)
    addrs

(* Three geometries: 2-way with 4 sets, 4-way with 4 sets, and the 128-way
   fully associative one of small-cache (one set of 8-byte lines), which
   the addresses overflow with 512 distinct lines. *)
let prop_lru_matches_reference =
  QCheck.Test.make ~count:300 ~name:"cache agrees with reference LRU"
    QCheck.(list_of_size (Gen.int_range 1 200) (int_range 0 4095))
    (fun addrs ->
      List.for_all
        (fun cfg ->
          let c = Cache.create cfg in
          let got = List.map (fun a -> Cache.access c a) addrs in
          got = reference_lru cfg addrs)
        [ { Cache.size_bytes = 512; line_bytes = 64; assoc = 2 };
          { Cache.size_bytes = 1024; line_bytes = 64; assoc = 4 };
          { Cache.size_bytes = 1024; line_bytes = 8; assoc = 128 } ])

(* --- model --- *)

let test_sequential_vs_strided () =
  (* column-major traversal of a matrix should miss far less than
     row-major traversal of the same data once a row sweep exceeds the
     cache capacity *)
  let n = 600 in
  let init = Kernels.Inits.for_kernel "matmul" ~n in
  let walk order =
    let s =
      Loopir.Ast.stmt ~id:0 ~label:"S1"
        (Fexpr.ref_ "C" [ v "i"; v "j" ])
        (Fexpr.f 1.0)
    in
    let inner, outer = if order = `Col then ("i", "j") else ("j", "i") in
    { Loopir.Ast.p_name = "walk";
      params = [ "N" ];
      arrays = [ { Loopir.Ast.a_name = "C"; extents = [ v "N"; v "N" ] } ];
      body =
        [ Loopir.Ast.loop outer (E.int 1) (v "N")
            [ Loopir.Ast.loop inner (E.int 1) (v "N") [ s ] ] ] }
  in
  let sim p =
    (Model.simulate ~machine:Model.sp2_like ~quality:Model.untuned p
       ~params:[ ("N", n) ] ~init)
  in
  let col = sim (walk `Col) and row = sim (walk `Row) in
  let misses r = (List.hd r.Model.r_levels).Model.s_misses in
  Alcotest.(check bool) "column order misses less" true
    (misses col * 4 < misses row);
  Alcotest.(check bool) "row order misses every line" true
    (misses row >= n * n / 16 (* 16 elements per 128B line *))

let test_blocking_reduces_misses () =
  let n = 120 in
  let p = K.matmul () in
  let spec =
    [ Spec.factor (Blocking.blocks_2d ~array:"C" ~size:30)
        [ ("S1", rf "C" [ "I"; "J" ]) ];
      Spec.factor (Blocking.blocks_2d ~array:"A" ~size:30)
        [ ("S1", rf "A" [ "I"; "K" ]) ] ]
  in
  let blocked = Pipeline.codegen (Pipeline.create p) spec in
  let init = Kernels.Inits.for_kernel "matmul" ~n in
  let sim q =
    Model.simulate ~machine:Model.sp2_like ~quality:Model.untuned q
      ~params:[ ("N", n) ] ~init
  in
  let a = sim p and b = sim blocked in
  let misses r = (List.hd r.Model.r_levels).Model.s_misses in
  Alcotest.(check int) "same flops" a.Model.r_flops b.Model.r_flops;
  Alcotest.(check bool) "blocked misses less" true (misses b * 2 < misses a);
  Alcotest.(check bool) "blocked is faster" true
    (b.Model.r_cycles < a.Model.r_cycles)

let test_forwarding_reduces_accesses () =
  let n = 40 in
  let p = K.matmul () in
  let init = Kernels.Inits.for_kernel "matmul" ~n in
  let untuned =
    Model.simulate ~machine:Model.sp2_like ~quality:Model.untuned p
      ~params:[ ("N", n) ] ~init
  in
  let tuned =
    Model.simulate ~machine:Model.sp2_like ~quality:Model.tuned p
      ~params:[ ("N", n) ] ~init
  in
  Alcotest.(check bool) "fewer accesses with forwarding" true
    (tuned.Model.r_accesses < untuned.Model.r_accesses);
  Alcotest.(check int) "instance count unchanged" untuned.Model.r_instances
    tuned.Model.r_instances

let test_two_level_machine () =
  let n = 100 in
  let p = K.matmul () in
  let init = Kernels.Inits.for_kernel "matmul" ~n in
  let r =
    Model.simulate ~machine:Model.two_level ~quality:Model.untuned p
      ~params:[ ("N", n) ] ~init
  in
  (match r.Model.r_levels with
   | [ l1; l2 ] ->
     Alcotest.(check bool) "L2 probed only on L1 miss" true
       (l2.Model.s_accesses = l1.Model.s_misses);
     Alcotest.(check bool) "L2 filters" true (l2.Model.s_misses <= l2.Model.s_accesses)
   | _ -> Alcotest.fail "expected two levels")

(* --- closed-form cycle accounting & the record/replay pipeline --- *)

(* Brute.record's trace and the value path's flops, made once per
   program and size and shared by every variant replayed on them. *)
let brute_runs = Hashtbl.create 8

let brute_run kernel prog ~params ~init =
  match Hashtbl.find_opt brute_runs (kernel, params) with
  | Some run -> run
  | None ->
    let r = Trace.create_recorder () in
    Fuzzing.Brute.record (Exec.Store.plan prog ~params) r prog ~params;
    let run = (Trace.finish r, snd (Exec.Verify.run_program prog ~params ~init)) in
    Hashtbl.add brute_runs (kernel, params) run;
    run

(* A reference simulator re-implementing the pre-refactor per-access float
   accumulation over Brute.record's trace and the value path's flops:
   walk a (spec, cache) list per access, dropping a forwarded access
   before it reaches any cache, and adding the hit or memory cost to a
   float the moment it is incurred.  The production Sim walks without
   forwarding, derives a forwarding quality's counters from that walk,
   accumulates only integer counters and folds costs in closed form when
   the result is built;
   because every cost constant is an integer or dyadic rational and every
   counter is far below 2^53, the two must agree bit-for-bit — not just
   within tolerance.  This reference is the one check of the derived
   forwarding against forwarding done for real. *)
let reference_simulate ~machine ~quality kernel prog ~params ~init =
  let levels =
    List.map
      (fun (l : Model.level_spec) -> (l, Cache.create l.Model.l_cache))
      machine.Model.levels
  in
  let hier = ref 0.0 in
  let accesses = ref 0 and instances = ref 0 and last = ref min_int in
  let trace ~write ~addr =
    if write then incr instances;
    if quality.Model.forwarding && addr = !last then ()
    else begin
      incr accesses;
      last := addr;
      let byte = addr * machine.Model.elem_bytes in
      let rec probe = function
        | [] -> hier := !hier +. machine.Model.mem_cycles
        | (l, c) :: rest ->
          if Cache.access c byte then hier := !hier +. l.Model.l_hit_cycles
          else probe rest
      in
      probe levels
    end
  in
  let brute_trace, flops = brute_run kernel prog ~params ~init in
  Trace.iter brute_trace trace;
  let cycles =
    (float_of_int flops *. machine.Model.flop_cycles)
    +. !hier
    +. (quality.Model.overhead *. float_of_int !instances)
  in
  ( cycles,
    flops,
    !accesses,
    !instances,
    List.map
      (fun ((l : Model.level_spec), c) ->
        { Model.s_name = l.Model.l_name;
          s_accesses = Cache.accesses c;
          s_hits = Cache.hits c;
          s_misses = Cache.misses c;
          s_evictions = Cache.evictions c })
      levels )

let trace_test_points =
  [ ("matmul", K.matmul (), 64); ("cholesky_right", K.cholesky_right (), 32) ]

let small_cache = List.assoc "small-cache" Model.machines

let all_variants =
  [ (Model.sp2_like, Model.untuned);
    (Model.sp2_like, Model.tuned);
    (Model.two_level, Model.untuned);
    (Model.two_level, Model.tuned);
    (small_cache, Model.untuned);
    (small_cache, Model.tuned) ]

(* small-cache's one 128-way set makes every miss scan 128 tags, so it
   runs each trace point at half its size: matmul N=32 touches 3,072
   elements and cholesky_right N=16 touches 256, both past its 128 lines. *)
let size_on machine n = if machine == small_cache then n / 2 else n

(* A machine with no cache level: every access goes to memory. *)
let no_cache = { Model.sp2_like with Model.m_name = "no-cache"; levels = [] }

(* A program whose trace is dense in repeated addresses: each S1 reads
   A(I) twice in a row, and each S2 reads A(I) right after S1 wrote it. *)
let repeats =
  Loopir.Parser.program
    "! repeats (params: N)\n\
     real A(N)\n\
     real B(N, N)\n\
     do J = 1, N\n\
    \  do I = 1, N\n\
    \    S1: A(I) = A(I) * A(I) + B(I, J)\n\
    \    S2: A(I) = A(I) - B(J, I)\n\
    \  end do\n\
     end do\n"

(* Every variant, the machine with no cache level, and the program dense
   in repeats, against the per-access reference. *)
let test_closed_form_matches_per_access () =
  List.iter
    (fun (kernel, prog, n) ->
      List.iter
        (fun (machine, quality) ->
          let n = size_on machine n in
          let params = [ ("N", n) ] in
          let init = Kernels.Inits.for_kernel kernel ~n in
          let tag =
            Printf.sprintf "%s N=%d %s/%s" kernel n machine.Model.m_name
              quality.Model.q_name
          in
          let cycles, flops, accesses, instances, levels =
            reference_simulate ~machine ~quality kernel prog ~params ~init
          in
          let r = Model.simulate ~machine ~quality prog ~params ~init in
          Alcotest.(check int) (tag ^ " flops") flops r.Model.r_flops;
          Alcotest.(check int) (tag ^ " accesses") accesses r.Model.r_accesses;
          Alcotest.(check int) (tag ^ " instances") instances
            r.Model.r_instances;
          Alcotest.(check bool) (tag ^ " level stats") true
            (levels = r.Model.r_levels);
          (* bitwise, NOT within-epsilon: the closed form must be exact *)
          Alcotest.(check bool) (tag ^ " cycles bit-identical") true
            (cycles = r.Model.r_cycles);
          if machine == small_cache then
            Alcotest.(check bool) (tag ^ " overflows its 128 lines") true
              ((List.hd r.Model.r_levels).Model.s_evictions > 0))
        (all_variants
        @ [ (no_cache, Model.untuned); (no_cache, Model.tuned) ]))
    (trace_test_points @ [ ("repeats", repeats, 40) ]);
  (* the chosen sizes overflow L1 on both machines, so evictions — the
     subtlest counter — are genuinely exercised, not vacuously zero *)
  List.iter
    (fun machine ->
      let prog = K.matmul () and n = 64 in
      let r =
        Model.simulate ~machine ~quality:Model.untuned prog
          ~params:[ ("N", n) ]
          ~init:(Kernels.Inits.for_kernel "matmul" ~n)
      in
      Alcotest.(check bool)
        (machine.Model.m_name ^ " has evictions")
        true
        ((List.hd r.Model.r_levels).Model.s_evictions > 0))
    [ Model.sp2_like; Model.two_level ]

let test_record_replay_matches_direct () =
  List.iter
    (fun (kernel, prog, n) ->
      let at n = ([ ("N", n) ], Kernels.Inits.for_kernel kernel ~n) in
      let direct =
        List.map
          (fun (machine, quality) ->
            let params, init = at (size_on machine n) in
            Model.simulate ~machine ~quality prog ~params ~init)
          all_variants
      in
      let sizes =
        List.sort_uniq compare
          (List.map (fun (machine, _) -> size_on machine n) all_variants)
      in
      (* tiny chunks force many flush boundaries in the replay loop; at 1
         and 7 words, the state it carries across chunks (forwarding's last
         address, the instance count, the first level's batched MRU hits)
         crosses a boundary mid-stream *)
      List.iter
        (fun chunk_words ->
          (* one recording per problem size, replayed by every variant *)
          let recordings =
            List.map
              (fun n ->
                let params, init = at n in
                (n, Model.record ~chunk_words prog ~params ~init))
              sizes
          in
          List.iter2
            (fun (machine, quality) want ->
              let n = size_on machine n in
              let tag =
                Printf.sprintf "%s N=%d %s/%s chunk %d" kernel n
                  machine.Model.m_name quality.Model.q_name chunk_words
              in
              Alcotest.(check bool) (tag ^ " consume = direct") true
                (Model.consume ~machine ~quality (List.assoc n recordings)
                = want))
            all_variants direct)
        [ 128; 7; 1 ];
      (* one recording also replays many times without mutation *)
      let machine, quality = List.hd all_variants in
      let params, init = at n in
      let recording = Model.record ~chunk_words:128 prog ~params ~init in
      Alcotest.(check bool) "recording is reusable" true
        (Model.consume ~machine ~quality recording
        = Model.consume ~machine ~quality recording))
    trace_test_points

(* --- the address-only recording against Brute.record --- *)

(* Model.record runs the interpreter's address-only path (and its strided
   innermost loops); Brute.record, which enumerates the same program's
   accesses and lays each out through Store.offset, must give the same
   words in the same chunks, and the value path the same flops. *)
let check_record_matches_brute ?layouts ?chunk_words tag prog ~params ~init =
  let _, flops = Exec.Verify.run_program ?layouts prog ~params ~init in
  let r = Trace.create_recorder ?chunk_words () in
  Fuzzing.Brute.record (Exec.Store.plan ?layouts prog ~params) r prog ~params;
  let want = Trace.finish r in
  let got = Model.record ?layouts ?chunk_words prog ~params ~init in
  let tr = got.Model.rec_trace in
  Alcotest.(check int) (tag ^ " words") (Trace.length want) (Trace.length tr);
  Alcotest.(check bool) (tag ^ " same words") true (Trace.equal want tr);
  Alcotest.(check int) (tag ^ " chunks") (Trace.num_chunks want)
    (Trace.num_chunks tr);
  Alcotest.(check int) (tag ^ " bytes") (Trace.bytes want) (Trace.bytes tr);
  Alcotest.(check int) (tag ^ " flops") flops got.Model.rec_flops

let kernel_params kernel n =
  if kernel = "cholesky_banded" then [ ("N", n); ("BW", max 1 (n / 3)) ]
  else [ ("N", n) ]

(* Every kernel at two sizes, at the default chunk size and at 7 words;
   the banded kernel also in band storage. *)
let test_record_matches_brute_kernels () =
  List.iter
    (fun (kernel, prog) ->
      List.iter
        (fun n ->
          let params = kernel_params kernel n in
          let init = Kernels.Inits.for_kernel kernel ~n in
          List.iter
            (fun chunk_words ->
              let tag = Printf.sprintf "%s N=%d chunk %d" kernel n chunk_words in
              check_record_matches_brute ~chunk_words tag prog ~params ~init;
              if kernel = "cholesky_banded" then
                check_record_matches_brute ~chunk_words
                  ~layouts:[ ("A", Exec.Store.Banded (List.assoc "BW" params)) ]
                  (tag ^ " banded") prog ~params ~init)
            [ Trace.default_chunk_words; 7 ])
        [ 7; 12 ])
    (K.all ())

(* Innermost loops under guards affine in the loop variable, of every
   relation and with coefficients of both signs, some of them empty on
   part of the outer range, at sizes that start and stop their ranges at
   every offset. *)
let test_record_matches_brute_guards () =
  let guarded =
    Loopir.Parser.program
      "! guarded (params: N)\n\
       real A(N, N)\n\
       real B(N, N)\n\
       do J = 1, N\n\
      \  do I = 1, N\n\
      \    if (I >= J - 2 and 2*I <= N + J and I + 1 > 3) then\n\
      \      S1: A(I, J) = A(I, J) + B(I, J)\n\
      \    end if\n\
      \  end do\n\
      \  do I = 1, N\n\
      \    if (I == J) then\n\
      \      S2: B(I, J) = 2.0 * A(I, I)\n\
      \    end if\n\
      \  end do\n\
      \  do I = 1, N\n\
      \    if (3*I < 2*J + 1 and J - I + 4 > 0 and 5 >= 2) then\n\
      \      S3: A(I, J) = -B(J, I)\n\
      \    end if\n\
      \  end do\n\
      \  do I = J, N\n\
      \    if (J >= 3) then\n\
      \      S4: B(I, J) = B(I, J) * A(J, I)\n\
      \    end if\n\
      \  end do\n\
       end do\n"
  in
  List.iter
    (fun n ->
      check_record_matches_brute ~chunk_words:5
        (Printf.sprintf "guarded N=%d" n)
        guarded ~params:[ ("N", n) ] ~init:(fun _ _ -> 1.0))
    [ 1; 2; 3; 4; 5; 8; 13 ]

(* Random guards on a strided innermost loop: [do I = lo, N] inside
   [do J = 1, N] under one or two conjuncts [c*I + d*J + e REL 0].  The
   guards may bound I more tightly than the loop does on either side, pin
   it to one value, or hold nowhere, so the interval the strided path
   derives from them must round each bound the right way. *)
let strided_guard_program ~lo conjuncts =
  let guard (c, d, e, rel) =
    Loopir.Ast.guard
      (E.Add (E.Add (E.Mul (c, v "I"), E.Mul (d, v "J")), E.Const e))
      rel (E.int 0)
  in
  let square name = { Loopir.Ast.a_name = name; extents = [ v "N"; v "N" ] } in
  let s1 =
    Loopir.Ast.stmt ~id:0 ~label:"S1" (rf "A" [ "I"; "J" ])
      Fexpr.(read "A" [ v "I"; v "J" ] + read "B" [ v "J"; v "I" ])
  in
  { Loopir.Ast.p_name = "strided_guards";
    params = [ "N" ];
    arrays = [ square "A"; square "B" ];
    body =
      [ Loopir.Ast.loop "J" (E.int 1) (v "N")
          [ Loopir.Ast.loop "I" (E.int lo) (v "N")
              [ Loopir.Ast.If (List.map guard conjuncts, [ s1 ]) ] ] ] }

let prop_strided_guards_match_brute =
  let conjunct =
    QCheck.Gen.(
      quad (int_range (-3) 3) (int_range (-2) 2) (int_range (-9) 9)
        (oneofl Loopir.Ast.[ Le; Lt; Ge; Gt; Eq ]))
  in
  let case =
    QCheck.Gen.(
      triple (int_range 1 3) (int_range 1 9) (list_size (int_range 1 2) conjunct))
  in
  let print (lo, n, conjuncts) =
    Printf.sprintf "N=%d\n%s" n
      (Loopir.Ast.program_to_string (strided_guard_program ~lo conjuncts))
  in
  QCheck.Test.make ~count:500 ~name:"record = Brute.record"
    (QCheck.make ~print case)
    (fun (lo, n, conjuncts) ->
      check_record_matches_brute ~chunk_words:5
        (Printf.sprintf "strided guards lo=%d N=%d" lo n)
        (strided_guard_program ~lo conjuncts)
        ~params:[ ("N", n) ] ~init:(fun _ _ -> 1.0);
      true)

(* Every registry spec at two block sizes, symbolic and specialized (the
   shape the figures and perfbench record), the banded write shackle in
   band storage, and the perfbench deck's matmul two-level:16 (innermost
   loops of two trips) and cholesky_right full:16 (innermost loops under a
   guard). *)
let test_record_matches_brute_specs () =
  let specs =
    [ ("matmul", "c"); ("matmul", "ca"); ("matmul", "two-level");
      ("cholesky_right", "write"); ("cholesky_right", "read");
      ("cholesky_right", "full"); ("cholesky_right", "left");
      ("cholesky_left", "write"); ("cholesky_banded", "write");
      ("qr", "columns"); ("gmtry", "write"); ("adi", "fused") ]
  in
  let check ?layouts kernel spec_name size n =
    let pipe = Pipeline.create (List.assoc kernel (K.all ())) in
    let spec =
      Option.get (Experiments.Specs.lookup ~kernel ~spec:spec_name ~size)
    in
    let params = kernel_params kernel n in
    let init = Kernels.Inits.for_kernel kernel ~n in
    let tag = Printf.sprintf "%s %s:%d N=%d" kernel spec_name size n in
    check_record_matches_brute ?layouts tag
      (Pipeline.codegen_cached pipe spec) ~params ~init;
    check_record_matches_brute ?layouts (tag ^ " specialized")
      (Pipeline.specialize ~spec pipe ~params) ~params ~init
  in
  List.iter
    (fun (kernel, spec) ->
      List.iter (fun size -> check kernel spec size 13) [ 4; 8 ])
    specs;
  List.iter
    (fun size ->
      check ~layouts:[ ("A", Exec.Store.Banded 6) ] "cholesky_banded" "write"
        size 19)
    [ 4; 8 ];
  check "matmul" "two-level" 16 40;
  check "cholesky_right" "full" 16 76

(* --- one walk per recording and geometry --- *)

(* Consuming every quality in either order on one recording, or each on a
   fresh recording, equals the direct streaming simulation: on the three
   named machines and one with no cache level, for matmul and for the
   program dense in repeats.  Both paths derive forwarding from one walk;
   "closed form = per-access accumulation" checks that derivation against
   forwarding done for real. *)
let test_walk_once_per_geometry () =
  let programs =
    [ ("matmul", K.matmul (), 20, Kernels.Inits.for_kernel "matmul" ~n:20);
      ("repeats", repeats, 40, fun _ _ -> 1.0) ]
  in
  List.iter
    (fun (name, prog, n, init) ->
      let params = [ ("N", n) ] in
      List.iter
        (fun machine ->
          let tag q what =
            Printf.sprintf "%s on %s/%s: %s" name machine.Model.m_name
              q.Model.q_name what
          in
          let direct q = Model.simulate ~machine ~quality:q prog ~params ~init in
          let qualities = [ Model.untuned; Model.tuned ] in
          let want = List.map direct qualities in
          if name = "repeats" then
            Alcotest.(check bool)
              (tag Model.tuned "forwarding drops accesses")
              true
              ((List.nth want 1).Model.r_accesses
              < (List.nth want 0).Model.r_accesses);
          let fresh q = Model.consume ~machine ~quality:q (Model.record prog ~params ~init) in
          List.iter2
            (fun q w ->
              Alcotest.(check bool) (tag q "fresh = direct") true (fresh q = w))
            qualities want;
          List.iter
            (fun order ->
              let r = Model.record ~chunk_words:7 prog ~params ~init in
              List.iter
                (fun q ->
                  let w = List.nth want (if q == Model.untuned then 0 else 1) in
                  Alcotest.(check bool)
                    (tag q (Printf.sprintf "%s first = direct"
                              (List.hd order).Model.q_name))
                    true (Model.consume ~machine ~quality:q r = w))
                (order @ order))
            [ qualities; List.rev qualities ])
        [ Model.sp2_like; Model.two_level; small_cache; no_cache ])
    programs

(* Two domains consuming one recording at once, every variant in opposite
   orders, race on the memo: each result equals a fresh recording's. *)
let test_walk_memo_across_domains () =
  let prog = K.matmul () and n = 16 in
  let params = [ ("N", n) ] and init = Kernels.Inits.for_kernel "matmul" ~n in
  let want =
    List.map
      (fun (machine, quality) ->
        Model.consume ~machine ~quality (Model.record prog ~params ~init))
      all_variants
  in
  let shared = Model.record prog ~params ~init in
  let consume_all variants =
    List.map
      (fun (machine, quality) -> Model.consume ~machine ~quality shared)
      variants
  in
  let other = Domain.spawn (fun () -> List.rev (consume_all (List.rev all_variants))) in
  let mine = consume_all all_variants in
  let theirs = Domain.join other in
  Alcotest.(check bool) "this domain's results" true (mine = want);
  Alcotest.(check bool) "the other domain's results" true (theirs = want)

(* Replay and recording allocate nothing per access.  A consume that walks
   allocates the same minor words on a 131,072-word trace as on a
   16,384-word one: each measured call gets a fresh recording, since a
   second consume on one recording and geometry reads the memoized walk
   and walks nothing.  Executing the larger program on a prepared value
   path, or recording its trace from a prepared address-only compile,
   allocates a bounded handful of words (bindings and the chunk
   hand-overs), and the address-only recording of the larger trace
   allocates at most a few words per stored chunk more than of the
   smaller. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_no_allocation_per_access () =
  let prog = K.matmul () in
  let init n = Kernels.Inits.for_kernel "matmul" ~n in
  let recording n = Model.record prog ~params:[ ("N", n) ] ~init:(init n) in
  Alcotest.(check int) "N=16 trace words" 16_384
    (Trace.length (recording 16).Model.rec_trace);
  Alcotest.(check int) "N=32 trace words" 131_072
    (Trace.length (recording 32).Model.rec_trace);
  List.iter
    (fun (machine, quality) ->
      let words n =
        let r = recording n in
        minor_words (fun () -> ignore (Model.consume ~machine ~quality r))
      in
      (* a first call, so neither measured one pays any one-time set-up *)
      ignore (words 16);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s/%s consume: minor words independent of length"
           machine.Model.m_name quality.Model.q_name)
        (words 16) (words 32))
    [ (Model.sp2_like, Model.untuned);
      (Model.sp2_like, Model.tuned);
      (Model.two_level, Model.untuned);
      (small_cache, Model.untuned) ];
  let params = [ ("N", 32) ] in
  let store = Exec.Store.create prog ~params ~init:(init 32) in
  let prepared_words prepared =
    minor_words (fun () -> ignore (Exec.Interp.invoke prepared ~params))
  in
  let words = prepared_words (Exec.Interp.prepare store prog) in
  Alcotest.(check bool)
    (Printf.sprintf "executing N=32 allocates %.0f minor words (< 100)" words)
    true (words < 100.0);
  let rc = Trace.create_recorder () in
  let words = prepared_words (Exec.Interp.prepare_addresses store rc prog) in
  Alcotest.(check int) "recorded words" 131_072
    (Trace.length (Trace.finish rc));
  Alcotest.(check bool)
    (Printf.sprintf "recording N=32 allocates %.0f minor words (< 100)" words)
    true (words < 100.0);
  let address_words n =
    let params = [ ("N", n) ] in
    let layout = Exec.Store.plan prog ~params in
    minor_words (fun () ->
        ignore
          (Exec.Interp.addresses layout (Trace.create_recorder ()) prog ~params))
  in
  ignore (address_words 16);
  let extra = address_words 32 -. address_words 16 in
  Alcotest.(check bool)
    (Printf.sprintf
       "address-only recording of N=32 allocates %.0f minor words more than \
        of N=16 (< 200)"
       extra)
    true (extra < 200.0)

(* --- tiling baseline --- *)

let test_tile_matmul_equivalent () =
  let p = K.matmul () in
  let tiled = Tiling.tile p ~sizes:[ ("I", 7); ("J", 5); ("K", 3) ] in
  let init = Kernels.Inits.for_kernel "matmul" ~n:17 in
  Alcotest.(check bool) "equivalent" true
    (Exec.Verify.equivalent p tiled ~params:[ ("N", 17) ] ~init)

let test_tile_matches_shackle_trace () =
  (* Section 3/4: for matmul, tiling all three loops and the C x A shackle
     produce the same blocked structure; their miss counts agree. *)
  let n = 75 in
  let p = K.matmul () in
  let tiled = Tiling.tile p ~sizes:[ ("I", 25); ("J", 25); ("K", 25) ] in
  let spec =
    [ Spec.factor (Blocking.blocks_2d ~array:"C" ~size:25)
        [ ("S1", rf "C" [ "I"; "J" ]) ];
      Spec.factor (Blocking.blocks_2d ~array:"A" ~size:25)
        [ ("S1", rf "A" [ "I"; "K" ]) ] ]
  in
  let shackled = Pipeline.codegen (Pipeline.create p) spec in
  let init = Kernels.Inits.for_kernel "matmul" ~n in
  let sim q =
    Model.simulate ~machine:Model.sp2_like ~quality:Model.untuned q
      ~params:[ ("N", n) ] ~init
  in
  let a = sim tiled and b = sim shackled in
  let misses r = (List.hd r.Model.r_levels).Model.s_misses in
  Alcotest.(check int) "identical misses" (misses a) (misses b)

let test_tile_rejects_imperfect () =
  Alcotest.(check bool) "cholesky rejected" true
    (try
       ignore (Tiling.tile (K.cholesky_right ()) ~sizes:[ ("J", 8) ]);
       false
     with Tiling.Not_perfectly_nested _ -> true)

let test_tile_rejects_triangular () =
  Alcotest.(check bool) "syrk J loop rejected" true
    (try
       ignore (Tiling.tile (K.syrk ()) ~sizes:[ ("J", 8) ]);
       false
     with Tiling.Not_perfectly_nested _ -> true)

let test_cholesky_update_tiled_correct () =
  let n = 33 in
  let init = Kernels.Inits.for_kernel "cholesky_right" ~n in
  Alcotest.(check bool) "equivalent" true
    (Exec.Verify.equivalent (K.cholesky_right ())
       (Tiling.cholesky_update_tiled ~size:8)
       ~params:[ ("N", n) ] ~init)

let test_shackle_beats_update_tiling () =
  (* the paper's Section 3 point: naive sinking + update-loop tiling is
     weaker than full data-centric blocking *)
  let n = 96 in
  let init = Kernels.Inits.for_kernel "cholesky_right" ~n in
  let spec =
    [ Spec.factor (Blocking.blocks_2d ~array:"A" ~size:24)
        [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" [ "I"; "J" ]);
          ("S3", rf "A" [ "L"; "K" ]) ];
      Spec.factor (Blocking.blocks_2d ~array:"A" ~size:24)
        [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" [ "J"; "J" ]);
          ("S3", rf "A" [ "K"; "J" ]) ] ]
  in
  let shackled =
    Pipeline.codegen (Pipeline.create (K.cholesky_right ())) spec
  in
  let tiled = Tiling.cholesky_update_tiled ~size:24 in
  let sim q =
    Model.simulate ~machine:Model.sp2_like ~quality:Model.untuned q
      ~params:[ ("N", n) ] ~init
  in
  let a = sim shackled and b = sim tiled in
  let misses r = (List.hd r.Model.r_levels).Model.s_misses in
  Alcotest.(check bool) "shackle misses no more" true (misses a <= misses b)

let () =
  Alcotest.run "machine"
    [ ( "cache-property",
        List.map QCheck_alcotest.to_alcotest [ prop_lru_matches_reference ] );
      ( "guard-property",
        List.map QCheck_alcotest.to_alcotest [ prop_strided_guards_match_brute ] );
      ( "cache",
        [ Alcotest.test_case "basics" `Quick test_cache_basics;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "direct mapped" `Quick test_cache_direct_mapped;
          Alcotest.test_case "eviction count" `Quick test_cache_eviction_count;
          Alcotest.test_case "full capacity" `Quick test_cache_full_capacity;
          Alcotest.test_case "reset" `Quick test_cache_reset;
          Alcotest.test_case "geometry checks" `Quick test_cache_geometry_checks ] );
      ( "model",
        [ Alcotest.test_case "sequential vs strided" `Quick
            test_sequential_vs_strided;
          Alcotest.test_case "blocking reduces misses" `Slow
            test_blocking_reduces_misses;
          Alcotest.test_case "forwarding" `Quick test_forwarding_reduces_accesses;
          Alcotest.test_case "two-level hierarchy" `Quick test_two_level_machine ] );
      ( "trace-pipeline",
        [ Alcotest.test_case "closed form = per-access accumulation" `Quick
            test_closed_form_matches_per_access;
          Alcotest.test_case "record/replay = direct" `Quick
            test_record_replay_matches_direct;
          Alcotest.test_case "no allocation per access" `Quick
            test_no_allocation_per_access;
          Alcotest.test_case "record = Brute.record, every kernel" `Quick
            test_record_matches_brute_kernels;
          Alcotest.test_case "record = Brute.record, every spec" `Quick
            test_record_matches_brute_specs;
          Alcotest.test_case "record = Brute.record under guards" `Quick
            test_record_matches_brute_guards;
          Alcotest.test_case "one walk per geometry" `Quick
            test_walk_once_per_geometry;
          Alcotest.test_case "walk memo across domains" `Quick
            test_walk_memo_across_domains ] );
      ( "tiling",
        [ Alcotest.test_case "matmul equivalence" `Quick test_tile_matmul_equivalent;
          Alcotest.test_case "tiling = shackling on matmul" `Slow
            test_tile_matches_shackle_trace;
          Alcotest.test_case "imperfect nest rejected" `Quick
            test_tile_rejects_imperfect;
          Alcotest.test_case "triangular bound rejected" `Quick
            test_tile_rejects_triangular;
          Alcotest.test_case "update-tiled cholesky correct" `Quick
            test_cholesky_update_tiled_correct;
          Alcotest.test_case "shackle vs update tiling" `Slow
            test_shackle_beats_update_tiling ] ) ]
