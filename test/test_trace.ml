(* Unit tests for the chunked trace recorder: word packing, chunk-boundary
   flushes, and replay accounting. *)

(* Re-emit every access of [t] into a list of (write, addr) pairs. *)
let events t =
  let acc = ref [] in
  Trace.iter t (fun ~write ~addr -> acc := (write, addr) :: !acc);
  List.rev !acc

(* Chunk sizes of [t], in record order. *)
let chunk_sizes t =
  let sizes = ref [] in
  Trace.iter_chunks t (fun _ len -> sizes := len :: !sizes);
  List.rev !sizes

let emit_all r evs =
  List.iter (fun (write, addr) -> Trace.emit r ~write ~addr) evs

let sample n = List.init n (fun i -> (i mod 3 = 0, i * 7))

let record ~chunk_words evs =
  let r = Trace.create_recorder ~chunk_words () in
  emit_all r evs;
  Trace.finish r

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
  Alcotest.(check (list int)) "three full chunks then the tail"
    [ 32; 32; 32; 4 ] (chunk_sizes t)

let test_default_chunk_overflow () =
  (* one word past a default chunk starts a second chunk of the same size *)
  let n = Trace.default_chunk_words in
  let r = Trace.create_recorder () in
  emit_all r (sample (n + 1));
  let t = Trace.finish r in
  Alcotest.(check int) "length" (n + 1) (Trace.length t);
  Alcotest.(check int) "two chunks" 2 (Trace.num_chunks t);
  Alcotest.(check (list int)) "a full chunk then one word" [ n; 1 ]
    (chunk_sizes t);
  Alcotest.(check int) "bytes = two default chunks" (2 * n * 8)
    (Trace.bytes t)

let test_finish_holds_no_chunk () =
  let r = Trace.create_recorder ~chunk_words:8 () in
  Alcotest.(check int) "no chunk before the first word" 0
    (Array.length r.Trace.buf);
  emit_all r (sample 5);
  let t = Trace.finish r in
  Alcotest.(check int) "first stream" 5 (Trace.length t);
  Alcotest.(check int) "no chunk held after finish" 0
    (Array.length r.Trace.buf);
  (* no word since the last finish: nothing is stored *)
  let t = Trace.finish r in
  Alcotest.(check int) "length" 0 (Trace.length t);
  Alcotest.(check int) "chunks" 0 (Trace.num_chunks t);
  Alcotest.(check int) "bytes" 0 (Trace.bytes t);
  Alcotest.(check int) "still no chunk held" 0 (Array.length r.Trace.buf)

let test_reused_recorder () =
  (* a scheduler worker records task after task through one recorder: each
     stream after a finish must equal a fresh recorder's, chunk accounting
     included, whether the previous stream ended on a chunk boundary or
     inside a chunk *)
  let r = Trace.create_recorder ~chunk_words:16 () in
  List.iter
    (fun (before, evs) ->
      emit_all r before;
      ignore (Trace.finish r);
      emit_all r evs;
      let reused = Trace.finish r in
      let fresh = record ~chunk_words:16 evs in
      let what = Printf.sprintf "after %d words, %d words" (List.length before)
          (List.length evs) in
      Alcotest.(check (list (pair bool int))) (what ^ ": events") evs
        (events reused);
      Alcotest.(check bool) (what ^ ": equal") true (Trace.equal fresh reused);
      Alcotest.(check int) (what ^ ": chunks") (Trace.num_chunks fresh)
        (Trace.num_chunks reused);
      Alcotest.(check int) (what ^ ": bytes") (Trace.bytes fresh)
        (Trace.bytes reused);
      Alcotest.(check (list int)) (what ^ ": chunk sizes") (chunk_sizes fresh)
        (chunk_sizes reused))
    [ (sample 37, sample 50); (sample 32, sample 16); ([], sample 3);
      (sample 5, []) ]

(* --- stream mode --- *)

let test_streaming_hands_over_stored_chunks () =
  (* a streaming recorder hands its consumer the words and chunk
     boundaries a storing recorder would keep (a whole number of chunks, a
     partial tail, nothing at all), writes every chunk into one array, and
     seals an empty trace *)
  List.iter
    (fun n ->
      let evs = sample n in
      let handed = ref [] and arrays = ref [] in
      let r =
        Trace.streaming ~chunk_words:8 (fun buf len ->
            if not (List.memq buf !arrays) then arrays := buf :: !arrays;
            handed := Array.to_list (Array.sub buf 0 len) :: !handed)
      in
      emit_all r evs;
      let t = Trace.finish r in
      let stored = record ~chunk_words:8 evs in
      let chunks = ref [] in
      Trace.iter_chunks stored (fun buf len ->
          chunks := Array.to_list (Array.sub buf 0 len) :: !chunks);
      let what = Printf.sprintf "%d words" n in
      Alcotest.(check (list (list int))) (what ^ ": chunks") (List.rev !chunks)
        (List.rev !handed);
      Alcotest.(check bool) (what ^ ": one array") true (List.length !arrays <= 1);
      Alcotest.(check int) (what ^ ": nothing stored") 0 (Trace.length t))
    [ 16; 21; 0 ]

(* --- replay --- *)

let test_replay_is_repeatable () =
  let r = Trace.create_recorder ~chunk_words:16 () in
  emit_all r (sample 100);
  let t = Trace.finish r in
  Alcotest.(check (list (pair bool int))) "second replay identical" (events t)
    (events t)

(* --- deterministic merge --- *)

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
          Alcotest.test_case "chunk sizes" `Quick test_iter_chunks_sizes;
          Alcotest.test_case "default chunk + 1 word" `Quick
            test_default_chunk_overflow;
          Alcotest.test_case "finish holds no chunk" `Quick
            test_finish_holds_no_chunk;
          Alcotest.test_case "reused recorder = fresh" `Quick
            test_reused_recorder ] );
      ( "stream",
        [ Alcotest.test_case "hands over the stored chunks" `Quick
            test_streaming_hands_over_stored_chunks ] );
      (* the group keeps its old name so the case's id is stable *)
      ( "tee",
        [ Alcotest.test_case "repeatable replay" `Quick
            test_replay_is_repeatable ] );
      ( "merge",
        [ Alcotest.test_case "concat = one recording" `Quick
            test_concat_matches_single_recording;
          Alcotest.test_case "equal discriminates" `Quick
            test_equal_discriminates ] ) ]
