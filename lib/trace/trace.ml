type consumer = int array -> int -> unit

let word ~write ~addr = (addr lsl 1) lor (if write then 1 else 0)
let word_addr w = w asr 1
let word_is_write w = w land 1 = 1

let default_chunk_words = 1 lsl 16 (* 512 KB per chunk on 64-bit *)

type recorder = {
  chunk_words : int;
  mutable buf : int array;
  mutable len : int;
  (* finished chunks, most recent first *)
  mutable stored : (int array * int) list;
}

type t = {
  chunks : (int array * int) array;
  total_stored : int;
}

let create_recorder ?(chunk_words = default_chunk_words) () =
  if chunk_words <= 0 then invalid_arg "Trace.create_recorder: chunk_words";
  { chunk_words; buf = Array.make chunk_words 0; len = 0; stored = [] }

let flush r =
  if r.len > 0 then begin
    r.stored <- (r.buf, r.len) :: r.stored;
    r.buf <- Array.make r.chunk_words 0;
    r.len <- 0
  end

let emit r ~write ~addr =
  if r.len = r.chunk_words then flush r;
  Array.unsafe_set r.buf r.len ((addr lsl 1) lor (if write then 1 else 0));
  r.len <- r.len + 1

let emit_word r w =
  if r.len = r.chunk_words then flush r;
  Array.unsafe_set r.buf r.len w;
  r.len <- r.len + 1

let finish r =
  flush r;
  let chunks = Array.of_list (List.rev r.stored) in
  let total_stored =
    Array.fold_left (fun acc (_, len) -> acc + len) 0 chunks
  in
  { chunks; total_stored }

let length t = t.total_stored
let num_chunks t = Array.length t.chunks

let bytes t =
  Array.fold_left
    (fun acc (buf, _) -> acc + (Array.length buf * (Sys.word_size / 8)))
    0 t.chunks

let iter_chunks t f = Array.iter (fun (buf, len) -> f buf len) t.chunks

let iter t f =
  iter_chunks t (fun buf len ->
      for i = 0 to len - 1 do
        let w = Array.unsafe_get buf i in
        f ~write:(w land 1 = 1) ~addr:(w asr 1)
      done)

(* Re-chunking concatenation: the result is indistinguishable — words,
   chunk boundaries, accounting — from recording the parts' streams
   back-to-back into one recorder.  This is what makes a parallel
   execution's per-task traces mergeable into the sequential trace. *)
let concat ?(chunk_words = default_chunk_words) parts =
  let r = create_recorder ~chunk_words () in
  List.iter (fun t -> iter_chunks t (fun buf len ->
      for i = 0 to len - 1 do
        emit_word r (Array.unsafe_get buf i)
      done))
    parts;
  finish r

let equal a b =
  a.total_stored = b.total_stored
  &&
  (* element-wise compare, streaming both chunk lists in lockstep *)
  let ok = ref true in
  let words t =
    let arr = Array.make t.total_stored 0 in
    let pos = ref 0 in
    iter_chunks t (fun buf len ->
        Array.blit buf 0 arr !pos len;
        pos := !pos + len);
    arr
  in
  let wa = words a and wb = words b in
  (try
     Array.iteri (fun i w -> if w <> wb.(i) then (ok := false; raise Exit)) wa
   with Exit -> ());
  !ok

type sink =
  | No_trace
  | Callback of (write:bool -> addr:int -> unit)
  | Record of recorder
