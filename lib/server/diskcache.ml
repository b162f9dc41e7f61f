(* Append-only, CRC-guarded, fsynced on-disk verdict store with
   self-healing: the loader resynchronizes past corrupt spans (moving them
   to a quarantine sidecar instead of discarding the rest of the file),
   and the file can be compacted — deduplicated and rewritten in stable
   first-seen order.
   See the mli for the file format.  All state is mutex-protected: the
   daemon's worker domains share one handle. *)

let filename = "legality.cache"
let quarantine_suffix = ".quarantine"
let header = "shackle-cache/2\n"
let record_bytes = 22
let tag = '\xA5'

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, the zlib polynomial)                             *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s ~pos ~len =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Records                                                             *)
(* ------------------------------------------------------------------ *)

let render_record digest verdict =
  let buf = Buffer.create record_bytes in
  Buffer.add_char buf tag;
  Buffer.add_string buf digest;
  Buffer.add_char buf (if verdict then '\x01' else '\x00');
  let body = Buffer.contents buf in
  let crc = crc32 body ~pos:0 ~len:(record_bytes - 4) in
  Buffer.add_char buf (Char.chr ((crc lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((crc lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((crc lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (crc land 0xff));
  Buffer.contents buf

(* [parse_record raw off] is [Some (digest, verdict)] when the 22 bytes at
   [off] form a valid record. *)
let parse_record raw off =
  if String.length raw - off < record_bytes then None
  else if not (Char.equal raw.[off] tag) then None
  else
    let verdict_byte = raw.[off + 17] in
    if not (Char.equal verdict_byte '\x00' || Char.equal verdict_byte '\x01')
    then None
    else
      let stored =
        (Char.code raw.[off + 18] lsl 24)
        lor (Char.code raw.[off + 19] lsl 16)
        lor (Char.code raw.[off + 20] lsl 8)
        lor Char.code raw.[off + 21]
      in
      if stored <> crc32 raw ~pos:off ~len:(record_bytes - 4) then None
      else Some (String.sub raw (off + 1) 16, Char.equal verdict_byte '\x01')

(* ------------------------------------------------------------------ *)
(* The handle                                                          *)
(* ------------------------------------------------------------------ *)

type t = {
  path : string;
  table : (string, bool) Hashtbl.t; (* digest -> verdict *)
  mutable order : string list; (* digests, newest first *)
  mutable fd : Unix.file_descr option; (* None once closed *)
  mutable written : int; (* valid bytes (header + records) *)
  mutable n_dropped : int; (* torn + quarantined bytes at open *)
  mutable n_quarantined : int; (* bytes moved to the sidecar at open *)
  mutable n_quarantined_spans : int;
  n_hits : int Atomic.t;
  n_misses : int Atomic.t;
  n_appended : int Atomic.t;
  lock : Mutex.t;
}

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if not (String.equal parent dir) then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec write_all fd s ~pos ~len =
  if len > 0 then
    match Unix.write_substring fd s pos len with
    | n -> write_all fd s ~pos:(pos + n) ~len:(len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s ~pos ~len

(* Atomically replace the cache file with [header] + the given records
   (a digest/verdict pair each, oldest first): write to a sibling temp
   file, fsync, rename over.  Returns the new file size. *)
let rewrite_file path records =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let buf = Buffer.create (String.length header + (record_bytes * List.length records)) in
      Buffer.add_string buf header;
      List.iter
        (fun (digest, verdict) -> Buffer.add_string buf (render_record digest verdict))
        records;
      let body = Buffer.contents buf in
      write_all fd body ~pos:0 ~len:(String.length body);
      Unix.fsync fd;
      String.length body)
  |> fun size ->
  Unix.rename tmp path;
  size

(* Append corrupt spans to the quarantine sidecar, each framed by a
   one-line text header so a human (or test) can account for every byte:
   the raw span follows the header verbatim. *)
let quarantine_spans path spans =
  if spans <> [] then begin
    let qpath = path ^ quarantine_suffix in
    let fd =
      Unix.openfile qpath [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        List.iter
          (fun (off, raw) ->
            let head =
              Printf.sprintf "quarantine %d bytes at offset %d\n"
                (String.length raw) off
            in
            write_all fd head ~pos:0 ~len:(String.length head);
            write_all fd raw ~pos:0 ~len:(String.length raw);
            write_all fd "\n" ~pos:0 ~len:1)
          spans;
        Unix.fsync fd)
  end

let open_dir dir =
  mkdir_p dir;
  let path = Filename.concat dir filename in
  let table = Hashtbl.create 1024 in
  let fresh = not (Sys.file_exists path) in
  let raw = if fresh then "" else read_whole path in
  if (not fresh)
     && String.length raw >= String.length header
     && not (String.equal (String.sub raw 0 (String.length header)) header)
  then
    failwith
      (Printf.sprintf "%s: not a shackle-cache/2 file (refusing to clobber)"
         path);
  (* Scan every record boundary.  A span that fails to parse is skipped by
     resynchronizing on the next offset where a whole valid record starts;
     skipped spans of a record or more are corrupt (quarantined), while a
     shorter span at end-of-file is a torn append (silently dropped, as a
     kill -9 mid-write leaves behind). *)
  let records = ref [] (* (digest, verdict), newest first *) in
  let bad = ref [] (* (offset, raw span), newest first *) in
  let parsed = ref 0 (* valid record slots seen, duplicates included *) in
  let torn = ref 0 in
  let len = String.length raw in
  if len >= String.length header then begin
    let off = ref (String.length header) in
    while !off < len do
      match parse_record raw !off with
      | Some (digest, verdict) ->
        incr parsed;
        if not (Hashtbl.mem table digest) then begin
          Hashtbl.replace table digest verdict;
          records := (digest, verdict) :: !records
        end;
        off := !off + record_bytes
      | None ->
        let start = !off in
        let stop = ref (start + 1) in
        while !stop < len && parse_record raw !stop = None do
          incr stop
        done;
        let span = String.sub raw start (!stop - start) in
        if !stop >= len && String.length span < record_bytes then
          torn := String.length span (* torn tail: drop, don't quarantine *)
        else bad := (start, span) :: !bad;
        off := !stop
    done
  end
  else if len > 0 then torn := len (* torn header write: the whole file *);
  let ordered = List.rev !records in
  let spans = List.rev !bad in
  let quarantined =
    List.fold_left (fun acc (_, s) -> acc + String.length s) 0 spans
  in
  quarantine_spans path spans;
  let healthy_bytes =
    String.length header + (record_bytes * List.length ordered)
  in
  (* Heal the file: corrupt spans or on-disk duplicates (two processes
     appending the same digest) force a rewrite in first-seen order; a
     torn tail alone is healed by truncation (byte-identical surviving
     prefix, the cheaper path); a fresh or torn-header file starts over
     with a clean header. *)
  let duplicates = !parsed > List.length ordered in
  let written =
    if fresh || !torn = len then rewrite_file path ordered
    else if spans <> [] || duplicates then rewrite_file path ordered
    else begin
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      ignore (Unix.ftruncate fd healthy_bytes);
      Unix.close fd;
      healthy_bytes
    end
  in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  { path;
    table;
    order = List.map fst !records;
    fd = Some fd;
    written;
    n_dropped = !torn + quarantined;
    n_quarantined = quarantined;
    n_quarantined_spans = List.length spans;
    n_hits = Atomic.make 0;
    n_misses = Atomic.make 0;
    n_appended = Atomic.make 0;
    lock = Mutex.create () }

let close t =
  Mutex.protect t.lock (fun () ->
      match t.fd with
      | None -> ()
      | Some fd ->
        t.fd <- None;
        Unix.close fd)

let file t = t.path
let quarantine_file t = t.path ^ quarantine_suffix

(* Keys are the solver's 16-byte system digests, stored as given. *)
let check_digest fn digest =
  if String.length digest <> 16 then
    invalid_arg (Printf.sprintf "Diskcache.%s: a key is a 16-byte digest" fn)

let find t digest =
  check_digest "find" digest;
  let r = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table digest) in
  (match r with
  | Some _ -> Atomic.incr t.n_hits
  | None -> Atomic.incr t.n_misses);
  r

let add t digest verdict =
  check_digest "add" digest;
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem t.table digest) then begin
        Hashtbl.replace t.table digest verdict;
        t.order <- digest :: t.order;
        match t.fd with
        | None -> ()
        | Some fd ->
          let record = render_record digest verdict in
          write_all fd record ~pos:0 ~len:record_bytes;
          Unix.fsync fd;
          t.written <- t.written + record_bytes;
          Atomic.incr t.n_appended
      end)

(* Rewrite the file as header + one record per live digest in first-seen
   order, and swap the append fd to the new file. *)
let compact t =
  Mutex.protect t.lock (fun () ->
      let before = t.written in
      let ordered =
        List.rev_map
          (fun digest -> (digest, Hashtbl.find t.table digest))
          t.order
      in
      let size = rewrite_file t.path ordered in
      (match t.fd with
      | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      t.fd <- Some (Unix.openfile t.path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644);
      t.written <- size;
      (before, size))

let backing t =
  { Polyhedra.Omega.bk_find = find t; bk_store = add t }

let entries t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)
let bytes_on_disk t = Mutex.protect t.lock (fun () -> t.written)
let hits t = Atomic.get t.n_hits
let misses t = Atomic.get t.n_misses
let appended t = Atomic.get t.n_appended
let dropped_bytes t = t.n_dropped
let quarantined_bytes t = t.n_quarantined
let quarantined_spans t = t.n_quarantined_spans

(* Crash injection: write a prefix of a record, fsync, and abandon the
   handle — the on-disk image is exactly what a kill -9 between the two
   halves of a non-atomic append leaves behind. *)
let add_torn t digest verdict ~keep =
  check_digest "add_torn" digest;
  if keep < 0 || keep >= record_bytes then
    invalid_arg "Diskcache.add_torn: keep must be in [0, record_bytes)";
  Mutex.protect t.lock (fun () ->
      match t.fd with
      | None -> invalid_arg "Diskcache.add_torn: closed handle"
      | Some fd ->
        let record = render_record digest verdict in
        write_all fd record ~pos:0 ~len:keep;
        Unix.fsync fd;
        t.fd <- None;
        Unix.close fd)
