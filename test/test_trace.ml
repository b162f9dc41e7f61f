(* Unit tests for the chunked trace recorder: word packing, chunk-boundary
   flushes, and replay accounting. *)

(* Re-emit every access of [t] into a list of (write, addr) pairs. *)
let events t =
  let acc = ref [] in
  Trace.iter t (fun ~write ~addr -> acc := (write, addr) :: !acc);
  List.rev !acc

let emit_all r evs =
  List.iter (fun (write, addr) -> Trace.emit r ~write ~addr) evs

let sample n = List.init n (fun i -> (i mod 3 = 0, i * 7))

(* --- packed words --- *)

let test_word_packing () =
  List.iter
    (fun (write, addr) ->
      let w = Trace.word ~write ~addr in
      Alcotest.(check int) "addr survives" addr (Trace.word_addr w);
      Alcotest.(check bool) "write bit survives" write (Trace.word_is_write w))
    [ (false, 0); (true, 0); (false, 1); (true, max_int asr 1);
      (true, 123456789) ]

(* --- store mode --- *)

let test_store_roundtrip () =
  let evs = sample 1000 in
  (* chunk of 64 forces 15 full chunks plus a 40-word tail *)
  let r = Trace.create_recorder ~chunk_words:64 () in
  emit_all r evs;
  let t = Trace.finish r in
  Alcotest.(check (list (pair bool int))) "replay = record order" evs (events t);
  Alcotest.(check int) "length" 1000 (Trace.length t);
  Alcotest.(check int) "chunks" 16 (Trace.num_chunks t);
  (* bytes reports held capacity: 16 chunk arrays of 64 words each *)
  Alcotest.(check int) "bytes = chunk capacity held" (16 * 64 * 8)
    (Trace.bytes t)

let test_exact_chunk_boundary () =
  (* a stream that is a whole number of chunks must not produce an empty
     tail chunk *)
  let r = Trace.create_recorder ~chunk_words:8 () in
  emit_all r (sample 16);
  let t = Trace.finish r in
  Alcotest.(check int) "two chunks exactly" 2 (Trace.num_chunks t);
  Alcotest.(check int) "length" 16 (Trace.length t)

let test_empty_trace () =
  let t = Trace.finish (Trace.create_recorder ()) in
  Alcotest.(check int) "length" 0 (Trace.length t);
  Alcotest.(check int) "chunks" 0 (Trace.num_chunks t);
  Alcotest.(check int) "bytes" 0 (Trace.bytes t);
  Alcotest.(check (list (pair bool int))) "no events" [] (events t)

let test_iter_chunks_sizes () =
  let r = Trace.create_recorder ~chunk_words:32 () in
  emit_all r (sample 100);
  let t = Trace.finish r in
  let sizes = ref [] in
  Trace.iter_chunks t (fun _ len -> sizes := len :: !sizes);
  Alcotest.(check (list int)) "three full chunks then the tail"
    [ 32; 32; 32; 4 ] (List.rev !sizes)

(* --- replay --- *)

let test_replay_is_repeatable () =
  let r = Trace.create_recorder ~chunk_words:16 () in
  emit_all r (sample 100);
  let t = Trace.finish r in
  Alcotest.(check (list (pair bool int))) "second replay identical" (events t)
    (events t)

(* --- deterministic merge --- *)

let record ~chunk_words evs =
  let r = Trace.create_recorder ~chunk_words () in
  emit_all r evs;
  Trace.finish r

let test_concat_matches_single_recording () =
  (* concat must be byte-identical to recording the parts back-to-back
     into one recorder: same words, same chunk boundaries, same
     accounting.  Parts are recorded with a different chunk size to prove
     re-chunking; one part is empty. *)
  let evs = sample 100 in
  let parts =
    [ List.filteri (fun i _ -> i < 37) evs; [];
      List.filteri (fun i _ -> i >= 37) evs ]
  in
  let whole = record ~chunk_words:16 evs in
  let merged =
    Trace.concat ~chunk_words:16 (List.map (record ~chunk_words:8) parts)
  in
  Alcotest.(check bool) "words" true (Trace.equal whole merged);
  Alcotest.(check int) "length" (Trace.length whole) (Trace.length merged);
  Alcotest.(check int) "chunks" (Trace.num_chunks whole)
    (Trace.num_chunks merged);
  Alcotest.(check int) "bytes" (Trace.bytes whole) (Trace.bytes merged);
  Alcotest.(check (list (pair bool int))) "events" evs (events merged)

let test_equal_discriminates () =
  let evs = sample 50 in
  let a = record ~chunk_words:8 evs in
  let b = record ~chunk_words:32 evs in
  Alcotest.(check bool) "chunking ignored" true (Trace.equal a b);
  let c = record ~chunk_words:8 ((true, 9999) :: evs) in
  Alcotest.(check bool) "different streams differ" false (Trace.equal a c);
  let d = record ~chunk_words:8 (List.filteri (fun i _ -> i < 49) evs) in
  Alcotest.(check bool) "proper prefix differs" false (Trace.equal a d)

let () =
  Alcotest.run "trace"
    [ ( "words",
        [ Alcotest.test_case "packing" `Quick test_word_packing ] );
      ( "store",
        [ Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "exact chunk boundary" `Quick
            test_exact_chunk_boundary;
          Alcotest.test_case "empty" `Quick test_empty_trace;
          Alcotest.test_case "chunk sizes" `Quick test_iter_chunks_sizes ] );
      (* the group keeps its old name so the case's id is stable *)
      ( "tee",
        [ Alcotest.test_case "repeatable replay" `Quick
            test_replay_is_repeatable ] );
      ( "merge",
        [ Alcotest.test_case "concat = one recording" `Quick
            test_concat_matches_single_recording;
          Alcotest.test_case "equal discriminates" `Quick
            test_equal_discriminates ] ) ]
