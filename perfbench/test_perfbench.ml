(* Tests of the benchmark's own logic: the percentile and sample-support
   rule, seeded op-list generation, and span self-time arithmetic. *)

let feq = Alcotest.float 1e-9

let sorted n = Array.init n (fun i -> float_of_int (i + 1))

let test_rank () =
  Alcotest.(check int) "p90 of 100 is rank 90" 90 (Stat.rank ~n:100 0.9);
  Alcotest.(check int) "p50 of 100 is rank 50" 50 (Stat.rank ~n:100 0.5);
  Alcotest.(check int) "p50 of 101 is rank 51" 51 (Stat.rank ~n:101 0.5);
  Alcotest.(check int) "p99 of 1000 is rank 990" 990 (Stat.rank ~n:1000 0.99);
  Alcotest.(check int) "p0 clamps to rank 1" 1 (Stat.rank ~n:7 0.0);
  Alcotest.(check int) "p100 is the maximum" 7 (Stat.rank ~n:7 1.0)

let test_support () =
  let pc = Stat.percentile (sorted 100) 0.9 in
  Alcotest.check feq "p90 value" 90.0 pc.Stat.value;
  Alcotest.(check int) "n" 100 pc.n;
  Alcotest.(check int) "beyond" 10 pc.beyond;
  Alcotest.(check bool) "100 samples support p90" true (Stat.supported pc);
  let p99 = Stat.percentile (sorted 999) 0.99 in
  Alcotest.(check int) "999 samples leave 9 beyond p99" 9 p99.beyond;
  Alcotest.(check bool) "so p99 is unsupported" false (Stat.supported p99);
  Alcotest.(check bool) "1000 samples support p99" true
    (Stat.supported (Stat.percentile (sorted 1000) 0.99))

let test_gap () =
  (* 1..100 step 1: neighbours of 50 differ by 2%, no gap *)
  let even = Array.init 100 (fun i -> 100.0 +. float_of_int i) in
  Alcotest.(check bool) "dense sample, no gap" false (Stat.percentile even 0.5).Stat.gap;
  (* two classes: 50 fast ops at 1 ms, 50 slow at 10 ms -> p50 is the last
     fast op and its upper neighbour is ten times larger *)
  let split = Array.init 100 (fun i -> if i < 50 then 1.0 else 10.0) in
  Alcotest.(check bool) "class boundary is a gap" true (Stat.percentile split 0.5).gap;
  Alcotest.(check bool) "inside a class is not" false (Stat.percentile split 0.25).gap

let test_median () =
  Alcotest.check feq "odd" 2.0 (Stat.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "even" 2.5 (Stat.median [ 4.0; 1.0; 3.0; 2.0 ])

let deck = Array.init 17 Fun.id

let pass seed index = Deck.pass ~seed ~index ~vary:(fun _ x -> x) deck

let test_deck_determinism () =
  Alcotest.(check (array int)) "same seed, same pass" (pass 7 3) (pass 7 3);
  let with_vary seed =
    Deck.pass ~seed ~index:0 ~vary:(fun r x -> (x, Fuzzing.Rng.int r 3)) deck
  in
  Alcotest.(check bool) "same seed, same draws" true (with_vary 5 = with_vary 5)

let test_deck_shape () =
  let sorted a = List.sort compare (Array.to_list a) in
  for seed = 1 to 10 do
    for index = 0 to 4 do
      let p = pass seed index in
      Alcotest.(check (list int)) "every pass deals the whole deck once"
        (Array.to_list deck) (sorted p)
    done
  done;
  Alcotest.(check bool) "another seed, another order" true (pass 1 0 <> pass 2 0);
  Alcotest.(check bool) "another pass, another order" true (pass 1 0 <> pass 1 1)

let span ?(counters = []) id name parent t0 t1 =
  { Span.id; name; op = 0; parent; t0; t1; counters }

let self_of spans name =
  List.find_map
    (fun (s, self) -> if String.equal s.Span.name name then Some self else None)
    (Span.self_times spans)
  |> Option.get

let test_self_time () =
  let spans =
    [ span 0 "op" (-1) 0.0 10.0;
      span 1 "parse" 0 1.0 2.0;
      span 2 "legality" 0 3.0 7.0;
      span 3 "omega" 2 4.0 5.0 ]
  in
  Alcotest.check feq "parent minus direct children" 5.0 (self_of spans "op");
  Alcotest.check feq "leaf" 1.0 (self_of spans "parse");
  Alcotest.check feq "grandchild only counts against its parent" 3.0
    (self_of spans "legality");
  (* overlapping children (two client threads) are counted once, and a
     child running past its parent's end is clipped *)
  let spans =
    [ span 0 "pass" (-1) 0.0 10.0;
      span 1 "rpc" 0 1.0 4.0;
      span 2 "rpc" 0 2.0 5.0;
      span 3 "rpc" 0 9.0 12.0 ]
  in
  Alcotest.check feq "union of overlapping children, clipped" 5.0 (self_of spans "pass")

let test_by_name () =
  let spans =
    [ span 0 "op" (-1) 0.0 4.0;
      span ~counters:[ ("queries", 3.0) ] 1 "legality" 0 0.0 1.0;
      span 2 "op" (-1) 4.0 6.0;
      span ~counters:[ ("queries", 5.0) ] 3 "legality" 2 4.0 5.0 ]
  in
  let tbl = Span.by_name spans in
  let l = Hashtbl.find tbl "legality" and op = Hashtbl.find tbl "op" in
  Alcotest.(check int) "calls" 2 l.Span.calls;
  Alcotest.check feq "self seconds summed" 2.0 l.self_s;
  Alcotest.check feq "counters summed" 8.0 (List.assoc "queries" l.sums);
  Alcotest.check feq "op self excludes children" 4.0 op.Span.self_s

let test_record () =
  let r = Span.recorder () in
  let v =
    Span.record r ~name:"outer" ~op:1 (fun () ->
        Span.record r ~name:"inner" ~op:1 (fun () -> 42))
  in
  Alcotest.(check int) "value passes through" 42 v;
  match Span.spans r with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner first (finished first)" "inner" inner.Span.name;
    Alcotest.(check int) "inner's parent is outer" outer.Span.id inner.parent;
    Alcotest.(check int) "outer is a root" (-1) outer.parent
  | _ -> Alcotest.fail "expected two spans"

let () =
  Alcotest.run "perfbench"
    [ ( "percentile",
        [ Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "sample support" `Quick test_support;
          Alcotest.test_case "gap flag" `Quick test_gap;
          Alcotest.test_case "median" `Quick test_median ] );
      ( "deck",
        [ Alcotest.test_case "same seed, same list" `Quick test_deck_determinism;
          Alcotest.test_case "other seed, same shape and mix" `Quick test_deck_shape ] );
      ( "spans",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "per-name totals" `Quick test_by_name;
          Alcotest.test_case "nesting" `Quick test_record ] ) ]
