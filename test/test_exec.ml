(* Tests for the interpreter substrate: storage layouts, execution against
   hand-written kernels, flop counting, and the memory trace. *)

module Ast = Loopir.Ast
module K = Kernels.Builders
module Store = Exec.Store
module Interp = Exec.Interp
module Brute = Fuzzing.Brute

let params n = [ ("N", n) ]

(* --- store --- *)

let test_col_major_offsets () =
  let p = K.matmul () in
  let st = Store.create p ~params:(params 4) ~init:(fun _ _ -> 0.0) in
  let a = Store.find st "A" in
  Alcotest.(check int) "first" 0 (Store.offset a [| 1; 1 |]);
  Alcotest.(check int) "down a column" 1 (Store.offset a [| 2; 1 |]);
  Alcotest.(check int) "next column" 4 (Store.offset a [| 1; 2 |]);
  Alcotest.(check int) "last" 15 (Store.offset a [| 4; 4 |])

let test_base_addresses_disjoint () =
  let p = K.matmul () in
  let st = Store.create p ~params:(params 4) ~init:(fun _ _ -> 0.0) in
  let arrs = Store.arrays st in
  Alcotest.(check int) "three arrays" 3 (List.length arrs);
  let spans =
    List.map (fun (a : Store.arr) -> (a.base, a.base + Array.length a.data)) arrs
  in
  List.iteri
    (fun i (b1, e1) ->
      List.iteri
        (fun j (b2, _) ->
          if i < j then
            Alcotest.(check bool) "disjoint" true (e1 <= b2 || b1 >= b2))
        spans)
    spans

let test_banded_layout () =
  let p = K.cholesky_banded () in
  let st =
    Store.create
      ~layouts:[ ("A", Store.Banded 2) ]
      p
      ~params:[ ("N", 5); ("BW", 2) ]
      ~init:(fun _ idx -> float_of_int ((10 * idx.(0)) + idx.(1)))
  in
  let a = Store.find st "A" in
  Alcotest.(check int) "band size" 15 (Array.length a.Store.data);
  Alcotest.(check int) "diagonal j=1" 0 (Store.offset a [| 1; 1 |]);
  Alcotest.(check int) "subdiag" 1 (Store.offset a [| 2; 1 |]);
  Alcotest.(check int) "column 2" 3 (Store.offset a [| 2; 2 |]);
  Alcotest.(check (float 0.0)) "init through layout" 22.0
    (Store.get st "A" [| 2; 2 |]);
  Alcotest.check_raises "outside band"
    (Invalid_argument "Store.offset: A(5,1) outside band 2") (fun () ->
      ignore (Store.offset a [| 5; 1 |]));
  (* inside the band but below the last row: a padding slot, not an element *)
  Alcotest.check_raises "row past the matrix"
    (Invalid_argument "Store.offset: A index 6 out of [1..5]") (fun () ->
      ignore (Store.offset a [| 6; 5 |]))

let test_out_of_range () =
  let p = K.matmul () in
  let st = Store.create p ~params:(params 3) ~init:(fun _ _ -> 0.0) in
  let a = Store.find st "A" in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Store.offset a [| 4; 1 |]);
       false
     with Invalid_argument _ -> true)

(* The interpreter tests each reference's range inline and hands a failing
   index to Store.offset: on the value path and on the address-only path,
   an out-of-range reference raises exactly the error a direct
   Store.offset call would, and so does Brute.record, the reference
   recording that lays out each enumerated access through Store.offset.
   The address-only path checks a strided innermost loop at the two ends
   of its range, so most cases leave the array or band only at one end: a
   shifted read on the last iteration or on the first, a loop-invariant
   subscript only on the last outer iteration, the shifted write (after
   its in-range read) on the last iteration, the band on the last
   iteration, and, with the loop variable as the column, the band on the
   first. *)
let test_interp_range_checks () =
  let parse = Loopir.Parser.program in
  let shifted =
    parse
      "! shifted (params: N)\n\
       real A(N, N)\n\
       do J = 1, N\n\
      \  do I = 1, N\n\
      \    S1: A(I, J) = A(I + 1, J)\n\
      \  end do\n\
       end do\n"
  in
  let shifted_down =
    parse
      "! shifted_down (params: N)\n\
       real A(N, N)\n\
       do J = 1, N\n\
      \  do I = 1, N\n\
      \    S1: A(I, J) = A(I - 1, J)\n\
      \  end do\n\
       end do\n"
  in
  let next_column =
    parse
      "! next_column (params: N)\n\
       real A(N, N)\n\
       do J = 1, N\n\
      \  do I = 1, N\n\
      \    S1: A(I, J) = A(I, J + 1)\n\
      \  end do\n\
       end do\n"
  in
  let shifted_write =
    parse
      "! shifted_write (params: N)\n\
       real A(N, N)\n\
       do J = 1, N\n\
      \  do I = 1, N\n\
      \    S1: A(I + 1, J) = 2.0 * A(I, J)\n\
      \  end do\n\
       end do\n"
  in
  let banded lo hi =
    parse
      (Printf.sprintf
         "! banded (params: N)\n\
          real A(N, N)\n\
          do J = 1, N\n\
         \  do I = J + %d, J + %d\n\
         \    S1: A(I, J) = 2.0 * A(I, J)\n\
         \  end do\n\
          end do\n"
         lo hi)
  in
  let banded_row =
    parse
      "! banded_row (params: N)\n\
       real A(N, N)\n\
       do I = 4, N\n\
      \  do J = I - 3, I\n\
      \    S1: A(I, J) = 2.0 * A(I, J)\n\
      \  end do\n\
       end do\n"
  in
  let cases =
    [ ("column-major A(I+1,J) at I=N", shifted, [],
       "Store.offset: A index 5 out of [1..4]");
      ("column-major A(I-1,J) at I=1", shifted_down, [],
       "Store.offset: A index 0 out of [1..4]");
      ("column-major A(I,J+1) at J=N", next_column, [],
       "Store.offset: A index 5 out of [1..4]");
      ("column-major write A(I+1,J) at I=N", shifted_write, [],
       "Store.offset: A index 5 out of [1..4]");
      ("banded below the band", banded 0 3, [ ("A", Store.Banded 2) ],
       "Store.offset: A(4,1) outside band 2");
      ("banded row past the matrix", banded 1 1, [ ("A", Store.Banded 2) ],
       "Store.offset: A index 5 out of [1..4]");
      ("banded below the band at the first column", banded_row,
       [ ("A", Store.Banded 2) ], "Store.offset: A(4,1) outside band 2") ]
  in
  let plan prog ~layouts = Store.plan ~layouts prog ~params:(params 4) in
  let paths =
    [ ("value path", fun prog ~layouts ->
          let st =
            Store.create ~layouts prog ~params:(params 4)
              ~init:(fun _ _ -> 1.0)
          in
          ignore (Interp.run st prog ~params:(params 4)));
      ("address-only", fun prog ~layouts ->
          ignore
            (Interp.addresses (plan prog ~layouts) (Trace.create_recorder ())
               prog ~params:(params 4)));
      ("Brute.record", fun prog ~layouts ->
          Brute.record (plan prog ~layouts) (Trace.create_recorder ())
            prog ~params:(params 4)) ]
  in
  List.iter
    (fun (what, prog, layouts, msg) ->
      List.iter
        (fun (path, run) ->
          Alcotest.check_raises (what ^ " under " ^ path)
            (Invalid_argument msg) (fun () -> run prog ~layouts))
        paths)
    cases

(* A layout names an array by its declared name: one for an array the
   program does not declare (here a lowercase [a] for [A]) is refused,
   not silently dropped in favour of column-major. *)
let test_layout_for_undeclared_array () =
  let p = K.cholesky_banded () in
  let params = [ ("N", 5); ("BW", 2) ] in
  let msg = "Store.plan: layout for undeclared array a" in
  Alcotest.check_raises "create" (Invalid_argument msg) (fun () ->
      ignore
        (Store.create ~layouts:[ ("a", Store.Banded 2) ] p ~params
           ~init:(fun _ _ -> 1.0)));
  Alcotest.check_raises "plan" (Invalid_argument msg) (fun () ->
      ignore (Store.plan ~layouts:[ ("a", Store.Banded 2) ] p ~params))

(* --- interpreter vs hand-written kernels --- *)

let hand_matmul n init =
  let get a i j = init a [| i; j |] in
  let c = Array.make_matrix (n + 1) (n + 1) 0.0 in
  for i = 1 to n do
    for j = 1 to n do
      c.(i).(j) <- get "C" i j;
      for k = 1 to n do
        c.(i).(j) <- c.(i).(j) +. (get "A" i k *. get "B" k j)
      done
    done
  done;
  c

let test_matmul_against_hand () =
  let n = 7 in
  let init = Kernels.Inits.for_kernel "matmul" ~n in
  let st, flops = Exec.Verify.run_program (K.matmul ()) ~params:(params n) ~init in
  let expect = hand_matmul n init in
  for i = 1 to n do
    for j = 1 to n do
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "C(%d,%d)" i j)
        expect.(i).(j)
        (Store.get st "C" [| i; j |])
    done
  done;
  Alcotest.(check int) "flops = 2N^3" (2 * n * n * n) flops

let hand_cholesky n init =
  let a = Array.make_matrix (n + 1) (n + 1) 0.0 in
  for i = 1 to n do
    for j = 1 to n do
      a.(i).(j) <- init "A" [| i; j |]
    done
  done;
  for j = 1 to n do
    a.(j).(j) <- sqrt a.(j).(j);
    for i = j + 1 to n do
      a.(i).(j) <- a.(i).(j) /. a.(j).(j)
    done;
    for l = j + 1 to n do
      for k = j + 1 to l do
        a.(l).(k) <- a.(l).(k) -. (a.(l).(j) *. a.(k).(j))
      done
    done
  done;
  a

let test_cholesky_against_hand () =
  let n = 9 in
  let init = Kernels.Inits.for_kernel "cholesky_right" ~n in
  let st, _ =
    Exec.Verify.run_program (K.cholesky_right ()) ~params:(params n) ~init
  in
  let expect = hand_cholesky n init in
  (* check the lower triangle (the factor) *)
  for i = 1 to n do
    for j = 1 to i do
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "L(%d,%d)" i j)
        expect.(i).(j)
        (Store.get st "A" [| i; j |])
    done
  done

let test_cholesky_factor_property () =
  (* L * L^T should reproduce the original SPD matrix. *)
  let n = 8 in
  let init = Kernels.Inits.for_kernel "cholesky_right" ~n in
  let st, _ =
    Exec.Verify.run_program (K.cholesky_right ()) ~params:(params n) ~init
  in
  let l i j = if j > i then 0.0 else Store.get st "A" [| i; j |] in
  for i = 1 to n do
    for j = 1 to i do
      let dot = ref 0.0 in
      for k = 1 to n do
        dot := !dot +. (l i k *. l j k)
      done;
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "A(%d,%d)" i j)
        (init "A" [| i; j |])
        !dot
    done
  done

let test_left_right_cholesky_agree () =
  let n = 12 in
  let init = Kernels.Inits.for_kernel "cholesky_right" ~n in
  Alcotest.(check bool) "same factor" true
    (Exec.Verify.equivalent (K.cholesky_right ()) (K.cholesky_left ())
       ~params:(params n) ~init)

let test_banded_matches_dense_inside_band () =
  (* The banded kernel on a matrix whose entries outside the band are zero
     must agree with dense Cholesky inside the band. *)
  let n = 10 and bw = 3 in
  let dense_init = Kernels.Inits.for_kernel "cholesky_right" ~n in
  let banded_init name idx =
    if abs (idx.(0) - idx.(1)) > bw then 0.0 else dense_init name idx
  in
  let st_dense, _ =
    Exec.Verify.run_program (K.cholesky_right ())
      ~params:[ ("N", n) ]
      ~init:banded_init
  in
  let st_band, _ =
    Exec.Verify.run_program (K.cholesky_banded ())
      ~params:[ ("N", n); ("BW", bw) ]
      ~init:banded_init
  in
  for j = 1 to n do
    for i = j to min n (j + bw) do
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "L(%d,%d)" i j)
        (Store.get st_dense "A" [| i; j |])
        (Store.get st_band "A" [| i; j |])
    done
  done

(* --- tracing --- *)

(* The address-only path's recorded accesses of matmul at size [n], in
   order. *)
let matmul_accesses n =
  let r = Trace.create_recorder () in
  let prog = K.matmul () in
  ignore
    (Interp.addresses (Store.plan prog ~params:(params n)) r prog
       ~params:(params n));
  let events = ref [] in
  Trace.iter (Trace.finish r) (fun ~write ~addr -> events := (write, addr) :: !events);
  List.rev !events

let test_trace_counts () =
  let n = 5 in
  let events = matmul_accesses n in
  let writes = List.length (List.filter fst events) in
  (* per innermost instance: reads C, A, B; writes C *)
  Alcotest.(check int) "reads" (3 * n * n * n) (List.length events - writes);
  Alcotest.(check int) "writes" (n * n * n) writes

let test_trace_read_before_write () =
  (* the first four events form one statement instance: 3 reads then the
     write, and the C read and write hit the same address *)
  match matmul_accesses 2 with
  | (false, c) :: (false, _) :: (false, _) :: (true, c') :: _ ->
    Alcotest.(check int) "write follows reads to same C cell" c c'
  | _ -> Alcotest.fail "unexpected event shape"

(* --- walk --- *)

let test_walk_counts () =
  let n = 6 in
  Alcotest.(check int) "matmul instances" (n * n * n)
    (List.length (Brute.instances (K.matmul ()) ~params:(params n)));
  (* right-looking cholesky: N + N(N-1)/2 + sum_j sum_{l>j} (l-j) *)
  let s3 = ref 0 in
  for j = 1 to n do
    for l = j + 1 to n do
      s3 := !s3 + (l - j)
    done
  done;
  Alcotest.(check int) "cholesky instances"
    (n + (n * (n - 1) / 2) + !s3)
    (List.length (Brute.instances (K.cholesky_right ()) ~params:(params n)))

(* invoke with a name the program never mentions must raise, not silently
   drop the binding (a typo would otherwise read a stale slot value) *)
let test_invoke_unknown_param_raises () =
  let p = K.matmul () in
  let st = Store.create p ~params:(params 4) ~init:(fun _ _ -> 1.0) in
  let prep = Interp.prepare st p in
  Alcotest.(check bool) "known params accepted" true
    (Interp.invoke prep ~params:(params 4) >= 0);
  Alcotest.check_raises "unknown param"
    (Invalid_argument "Exec.Interp.invoke: unknown parameter M") (fun () ->
      ignore (Interp.invoke prep ~params:[ ("N", 4); ("M", 7) ]))

let test_walk_env () =
  let first =
    List.map
      (fun (i : Brute.instance) ->
        (List.assoc "I" i.env, List.assoc "J" i.env, List.assoc "K" i.env))
      (Brute.instances (K.matmul ()) ~params:(params 2))
  in
  Alcotest.(check bool) "first instance" true (List.hd first = (1, 1, 1));
  Alcotest.(check int) "count" 8 (List.length first)

let () =
  Alcotest.run "exec"
    [ ( "store",
        [ Alcotest.test_case "column-major offsets" `Quick test_col_major_offsets;
          Alcotest.test_case "disjoint bases" `Quick test_base_addresses_disjoint;
          Alcotest.test_case "banded layout" `Quick test_banded_layout;
          Alcotest.test_case "range checks" `Quick test_out_of_range;
          Alcotest.test_case "interpreter range checks" `Quick
            test_interp_range_checks;
          Alcotest.test_case "layout for undeclared array" `Quick
            test_layout_for_undeclared_array ] );
      ( "interp",
        [ Alcotest.test_case "matmul vs hand" `Quick test_matmul_against_hand;
          Alcotest.test_case "cholesky vs hand" `Quick test_cholesky_against_hand;
          Alcotest.test_case "cholesky LL^T property" `Quick
            test_cholesky_factor_property;
          Alcotest.test_case "left = right cholesky" `Quick
            test_left_right_cholesky_agree;
          Alcotest.test_case "banded = dense in band" `Quick
            test_banded_matches_dense_inside_band;
          Alcotest.test_case "unknown param raises" `Quick
            test_invoke_unknown_param_raises ] );
      ( "trace",
        [ Alcotest.test_case "access counts" `Quick test_trace_counts;
          Alcotest.test_case "read before write" `Quick
            test_trace_read_before_write ] );
      ( "walk",
        [ Alcotest.test_case "instance counts" `Quick test_walk_counts;
          Alcotest.test_case "environments" `Quick test_walk_env ] ) ]
