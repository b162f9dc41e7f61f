type config = {
  size_bytes : int;
  line_bytes : int;
  assoc : int;
}

type t = {
  cfg : config;
  nsets : int;
  line_shift : int;
  set_shift : int;
  (* tags.(set * assoc + way); -1 = empty.  Way 0 is most recently used. *)
  tags : int array;
  mutable n_accesses : int;
  mutable n_hits : int;
  mutable n_evictions : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k v = if v <= 1 then k else go (k + 1) (v lsr 1) in
  go 0 n

let create cfg =
  if not (is_pow2 cfg.line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  if cfg.assoc <= 0 then invalid_arg "Cache.create: associativity";
  let lines = cfg.size_bytes / cfg.line_bytes in
  if lines <= 0 || lines mod cfg.assoc <> 0 then
    invalid_arg "Cache.create: size/line/assoc mismatch";
  let nsets = lines / cfg.assoc in
  if not (is_pow2 nsets) then
    invalid_arg "Cache.create: number of sets must be a power of two";
  { cfg;
    nsets;
    line_shift = log2 cfg.line_bytes;
    set_shift = log2 nsets;
    tags = Array.make (nsets * cfg.assoc) (-1);
    n_accesses = 0;
    n_hits = 0;
    n_evictions = 0 }

(* Addresses are non-negative (Trace.word requires it), so the tag
   [line asr set_shift] is exactly [line / nsets]. *)
let access c addr =
  c.n_accesses <- c.n_accesses + 1;
  let line = addr asr c.line_shift in
  let tag = line asr c.set_shift in
  let assoc = c.cfg.assoc in
  let base = (line land (c.nsets - 1)) * assoc in
  let tags = c.tags in
  if tags.(base) = tag then begin
    (* already most recently used: nothing moves *)
    c.n_hits <- c.n_hits + 1;
    true
  end
  else begin
    (* find the way holding this tag; [assoc] when none does *)
    let w = ref 1 in
    while !w < assoc && tags.(base + !w) <> tag do
      incr w
    done;
    let hit = !w < assoc in
    (* move to front (LRU order is positional) *)
    let upto = if hit then !w else assoc - 1 in
    if (not hit) && tags.(base + assoc - 1) <> -1 then
      c.n_evictions <- c.n_evictions + 1;
    for i = base + upto downto base + 1 do
      tags.(i) <- tags.(i - 1)
    done;
    tags.(base) <- tag;
    if hit then c.n_hits <- c.n_hits + 1;
    hit
  end

let accesses c = c.n_accesses
let hits c = c.n_hits
let misses c = c.n_accesses - c.n_hits
let evictions c = c.n_evictions

let reset c =
  Array.fill c.tags 0 (Array.length c.tags) (-1);
  c.n_accesses <- 0;
  c.n_hits <- 0;
  c.n_evictions <- 0

let config c = c.cfg
