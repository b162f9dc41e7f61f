type level_spec = {
  l_name : string;
  l_cache : Cache.config;
  l_hit_cycles : float;
}

type t = {
  m_name : string;
  levels : level_spec list;
  mem_cycles : float;
  flop_cycles : float;
  clock_mhz : float;
  elem_bytes : int;
}

type quality = {
  q_name : string;
  overhead : float;
  forwarding : bool;
}

let sp2_like =
  { m_name = "sp2-like";
    levels =
      [ { l_name = "L1";
          l_cache = { Cache.size_bytes = 64 * 1024; line_bytes = 128; assoc = 4 };
          l_hit_cycles = 1.0 } ];
    mem_cycles = 50.0;
    flop_cycles = 0.5;
    clock_mhz = 66.0;
    elem_bytes = 8 }

(* Geometry scaled down so the locality effects show at simulation-friendly
   problem sizes; the L1:L2:memory cost ratios are what matter. *)
let two_level =
  { m_name = "two-level";
    levels =
      [ { l_name = "L1";
          l_cache = { Cache.size_bytes = 16 * 1024; line_bytes = 128; assoc = 4 };
          l_hit_cycles = 1.0 };
        { l_name = "L2";
          l_cache =
            { Cache.size_bytes = 256 * 1024; line_bytes = 128; assoc = 8 };
          l_hit_cycles = 8.0 } ];
    mem_cycles = 60.0;
    flop_cycles = 0.5;
    clock_mhz = 66.0;
    elem_bytes = 8 }

(* A deliberately small, fully-associative cache (128 single-element
   lines) with sp2-like cost ratios: capacity effects — and with them the
   analytic windowed lower bound — show up at problem sizes small enough
   for quick simulation and CI.  The geometry is chosen to match the
   ideal cache the {!Bounds} analysis models: full associativity (no set
   conflicts inflating simulated misses above any capacity argument) and
   one element per line (no spatial-locality slack between the
   line-granular simulator and the element-granular data-volume
   argument).  On this machine the bounds are tight enough that
   lower-bound pruning actually fires. *)
let small_cache =
  { m_name = "small-cache";
    levels =
      [ { l_name = "L1";
          l_cache = { Cache.size_bytes = 1024; line_bytes = 8; assoc = 128 };
          l_hit_cycles = 1.0 } ];
    mem_cycles = 50.0;
    flop_cycles = 0.5;
    clock_mhz = 66.0;
    elem_bytes = 8 }

let untuned = { q_name = "untuned"; overhead = 2.0; forwarding = false }
let tuned = { q_name = "tuned"; overhead = 0.25; forwarding = true }

let machines =
  List.map (fun m -> (m.m_name, m)) [ sp2_like; two_level; small_cache ]

let qualities = List.map (fun q -> (q.q_name, q)) [ untuned; tuned ]

type level_stat = {
  s_name : string;
  s_accesses : int;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
}

type result = {
  r_flops : int;
  r_instances : int;
  r_accesses : int;
  r_levels : level_stat list;
  r_cycles : float;
  r_mflops : float;
}

(* The counters one walk of the hierarchy leaves, all a result is built
   from.  [c_repeats] counts the words whose address repeats the previous
   word's: the ones a forwarding quality drops. *)
type counts = {
  c_accesses : int;
  c_instances : int;
  c_repeats : int;
  c_level_accesses : int array;
  c_level_hits : int array;
  c_level_evictions : int array;
}

(* An explicit simulator instance: the cache hierarchy plus the trace
   counters for one walk.  Instances share nothing, so a work pool
   fanning simulation points across domains simply creates one per task;
   nothing in this module is global.

   Cache levels live in flat arrays (fastest first) and the per-access
   work is pure counter updates: cycle costs are folded in once, in
   closed form, when the result is built.  Every cost constant is an
   integer or dyadic rational and every counter stays far below 2^53, so
   the closed form is bit-identical to the old per-access float
   accumulation. *)
module Sim = struct
  type sim = {
    elem_bytes : int;
    caches : Cache.t array;
    mutable accesses : int;
    mutable instances : int;
    mutable repeats : int;
    mutable last_addr : int;
  }

  let create (machine : t) =
    { elem_bytes = machine.elem_bytes;
      caches =
        Array.of_list (List.map (fun l -> Cache.create l.l_cache) machine.levels);
      accesses = 0;
      instances = 0;
      repeats = 0;
      last_addr = min_int }

  (* Replay one chunk of packed words: the one hierarchy walk, behind
     [consume] and [simulate], without forwarding.  Level l+1 is probed
     only when level l misses.  A word whose address repeats the previous
     word's is counted in [repeats] and reaches no cache: it is a hit on
     the first level's most recently used way (the previous word left its
     line there), which moves no tag.  So the loop walks only the other
     words, and the chunk's accesses and extra first-level hits follow
     from its length and its repeats.

     The default build compiles each library module with -opaque, so every
     call into Cache is an indirect call through its module block.  This
     loop therefore keeps the stream state (instance and repeat counts,
     the last address), the first level's geometry and its MRU hits in
     locals, and tests the first level's most recently used way itself.
     Such a hit moves no tag and changes only two counters; any other
     probe calls [Cache.access].  The counters are written back once per
     chunk, and nothing is allocated. *)
  let consume_chunk sim buf len =
    let elem_bytes = sim.elem_bytes in
    let caches = sim.caches in
    let n = Array.length caches in
    let instances = ref sim.instances
    and repeats = ref sim.repeats
    and last = ref sim.last_addr in
    if n = 0 then
      (* no cache level: every access goes to memory *)
      for i = 0 to len - 1 do
        let w = Array.unsafe_get buf i in
        instances := !instances + (w land 1);
        let addr = w asr 1 in
        if addr = !last then incr repeats else last := addr
      done
    else begin
      let l1 = caches.(0) in
      let tags = l1.Cache.tags and assoc = l1.Cache.cfg.Cache.assoc in
      let line_shift = l1.Cache.line_shift and set_shift = l1.Cache.set_shift in
      let set_mask = l1.Cache.nsets - 1 in
      let mru_hits = ref 0 in
      for i = 0 to len - 1 do
        let w = Array.unsafe_get buf i in
        instances := !instances + (w land 1);
        let addr = w asr 1 in
        if addr = !last then incr repeats
        else begin
          last := addr;
          let byte = addr * elem_bytes in
          let line = byte asr line_shift in
          (* Cache.access's own first test, on way 0 of the line's set *)
          if Array.unsafe_get tags ((line land set_mask) * assoc)
             = line asr set_shift
          then incr mru_hits
          else if not (Cache.access l1 byte) then begin
            let j = ref 1 in
            while !j < n && not (Cache.access (Array.unsafe_get caches !j) byte)
            do
              incr j
            done
          end
        end
      done;
      let mru_hits = !mru_hits + !repeats - sim.repeats in
      l1.Cache.n_accesses <- l1.Cache.n_accesses + mru_hits;
      l1.Cache.n_hits <- l1.Cache.n_hits + mru_hits
    end;
    sim.accesses <- sim.accesses + len;
    sim.instances <- !instances;
    sim.repeats <- !repeats;
    sim.last_addr <- !last

  let counts sim =
    { c_accesses = sim.accesses;
      c_instances = sim.instances;
      c_repeats = sim.repeats;
      c_level_accesses = Array.map Cache.accesses sim.caches;
      c_level_hits = Array.map Cache.hits sim.caches;
      c_level_evictions = Array.map Cache.evictions sim.caches }
end

(* What a forwarding quality's walk would have counted, from the counters
   of a walk without forwarding.  Each dropped word is a first-level hit
   on the most recently used way that moves no tag, so dropping it takes
   one from the total accesses and from the first level's accesses and
   hits, and leaves every miss, every eviction and every deeper level as
   it was. *)
let forwarded c =
  let minus_repeats a =
    Array.mapi (fun i x -> if i = 0 then x - c.c_repeats else x) a
  in
  { c with
    c_accesses = c.c_accesses - c.c_repeats;
    c_level_accesses = minus_repeats c.c_level_accesses;
    c_level_hits = minus_repeats c.c_level_hits }

(* Two walks' counters combined field by field. *)
let map2_counts f a b =
  { c_accesses = f a.c_accesses b.c_accesses;
    c_instances = f a.c_instances b.c_instances;
    c_repeats = f a.c_repeats b.c_repeats;
    c_level_accesses = Array.map2 f a.c_level_accesses b.c_level_accesses;
    c_level_hits = Array.map2 f a.c_level_hits b.c_level_hits;
    c_level_evictions = Array.map2 f a.c_level_evictions b.c_level_evictions }

let mflops machine ~flops cycles =
  if cycles = 0.0 then 0.0
  else float_of_int flops /. 1e6 /. (cycles /. (machine.clock_mhz *. 1e6))

(* A quality's result from the counters of a walk without forwarding
   (through [forwarded] when the quality forwards), with closed-form cycle
   accounting:
     cycles = flops * flop_cycles
            + sum_level hits(level) * hit_cycles(level)
            + memory misses * mem_cycles
            + instances * overhead *)
let result ~machine ~quality ~flops c =
  let c = if quality.forwarding then forwarded c else c in
  let levels = Array.of_list machine.levels in
  let n = Array.length levels in
  let misses i = c.c_level_accesses.(i) - c.c_level_hits.(i) in
  (* accesses that missed every level and went to memory *)
  let mem_misses = if n = 0 then c.c_accesses else misses (n - 1) in
  let hier = ref 0.0 in
  Array.iteri
    (fun i l ->
      hier := !hier +. (float_of_int c.c_level_hits.(i) *. l.l_hit_cycles))
    levels;
  let hier = !hier +. (float_of_int mem_misses *. machine.mem_cycles) in
  let cycles =
    (float_of_int flops *. machine.flop_cycles)
    +. hier
    +. (quality.overhead *. float_of_int c.c_instances)
  in
  { r_flops = flops;
    r_instances = c.c_instances;
    r_accesses = c.c_accesses;
    r_levels =
      Array.to_list
        (Array.mapi
           (fun i l ->
             { s_name = l.l_name;
               s_accesses = c.c_level_accesses.(i);
               s_hits = c.c_level_hits.(i);
               s_misses = misses i;
               s_evictions = c.c_level_evictions.(i) })
           levels);
    r_cycles = cycles;
    r_mflops = mflops machine ~flops cycles }

(* ------------------------------------------------------------------ *)
(* Record once, replay many                                            *)
(* ------------------------------------------------------------------ *)

(* What a walk depends on: the element size and every level's geometry.
   Names and costs only enter the result. *)
type geometry = int * Cache.config list

let geometry machine =
  (machine.elem_bytes, List.map (fun l -> l.l_cache) machine.levels)

(* The walks without forwarding already taken on a recording, one per
   geometry.  Domains may consume one recording at once: the list is
   replaced whole by compare-and-set, and two domains racing on one
   geometry both walk and store equal counters. *)
type walks = (geometry * counts) list Atomic.t

(* The access stream of one interpreter execution.  Machine and quality
   play no part in recording (forwarding is derived at replay), so a
   single recording serves every (machine x quality) series of a figure
   point. *)
type recording = { rec_trace : Trace.t; rec_flops : int; rec_walks : walks }

let recording rec_trace ~flops =
  { rec_trace; rec_flops = flops; rec_walks = Atomic.make [] }

let record ?layouts ?chunk_words prog ~params ~init:_ =
  let r = Trace.create_recorder ?chunk_words () in
  let flops =
    Exec.Interp.addresses (Exec.Store.plan ?layouts prog ~params) r prog
      ~params
  in
  recording (Trace.finish r) ~flops

let walk machine recording =
  let key = geometry machine in
  match List.assoc_opt key (Atomic.get recording.rec_walks) with
  | Some c -> c
  | None ->
    let sim = Sim.create machine in
    Trace.iter_chunks recording.rec_trace (Sim.consume_chunk sim);
    let c = Sim.counts sim in
    let rec publish () =
      let walks = Atomic.get recording.rec_walks in
      if not (List.mem_assoc key walks) then
        if not (Atomic.compare_and_set recording.rec_walks walks ((key, c) :: walks))
        then publish ()
    in
    publish ();
    c

let consume ~machine ~quality recording =
  result ~machine ~quality ~flops:recording.rec_flops (walk machine recording)

(* ------------------------------------------------------------------ *)
(* Shared-L2 SMP replay                                                 *)
(* ------------------------------------------------------------------ *)

(* A P-core machine built from a uniprocessor spec: every core gets a
   private copy of the first cache level, the remaining levels (and
   memory) are shared.  Replay consumes the per-task traces of a
   scheduled parallel execution: within each wavefront group, tasks are
   assigned to virtual cores round-robin in task order and the per-core
   streams are interleaved in fixed quanta, core 0 first.  Everything —
   assignment, interleave, counters, closed-form cycles — is a pure
   function of (traces, groups, cores), so the result is byte-identical
   no matter how many domains actually executed the blocks.  [cores] is
   a machine parameter, deliberately distinct from [--domains].

   Each core walks its quanta with its own [Sim] over its private first
   level and the shared caches, so forwarding is derived per core as
   [consume] derives it: a word repeating its core's previous address is
   a hit on the most recently used way of that core's first level, which
   no other core touches. *)
module Smp = struct
  (* Words each core's stream advances per interleave turn. *)
  let quantum_words = 64

  let consume ~machine ~quality ~cores ~groups ~parts ~task_flops =
    if cores <= 0 then invalid_arg "Smp.consume: cores";
    let first, shared =
      match machine.levels with
      | [] -> invalid_arg "Smp.consume: machine has no cache levels"
      | l :: rest ->
        (l, Array.of_list (List.map (fun l -> Cache.create l.l_cache) rest))
    in
    (* a core's walk: its own first level, then the caches every core
       shares *)
    let sims =
      Array.init cores (fun _ ->
          let sim = Sim.create { machine with levels = [ first ] } in
          { sim with caches = Array.append sim.caches shared })
    in
    (* each core's counters; of a shared level, what the level's counters
       gained during the core's quanta *)
    let zero = Sim.counts sims.(0) in
    let shares = Array.make cores zero in
    let flops = Array.make cores 0 in
    let scratch = Array.make quantum_words 0 in
    let replay core len =
      let sim = sims.(core) in
      let before = Sim.counts sim in
      Sim.consume_chunk sim scratch len;
      shares.(core) <-
        map2_counts ( + ) shares.(core) (map2_counts ( - ) (Sim.counts sim) before)
    in
    (* one wavefront group: tasks go to cores round-robin, and a core's
       stream is its tasks' chunks in task order, of which the first
       [pos.(core)] words of the head chunk are replayed.  The chunks are
       kept past [iter_chunks]: a stored trace never reuses them. *)
    let consume_group tasks =
      let pending = Array.make cores [] and pos = Array.make cores 0 in
      List.iteri
        (fun i t ->
          let core = i mod cores in
          flops.(core) <- flops.(core) + task_flops.(t);
          Trace.iter_chunks parts.(t) (fun buf len ->
              pending.(core) <- (buf, len) :: pending.(core)))
        tasks;
      Array.iteri (fun core p -> pending.(core) <- List.rev p) pending;
      (* copy the core's next quantum into [scratch]; its length *)
      let rec fill core k =
        match pending.(core) with
        | (buf, len) :: rest when k < quantum_words ->
          let m = min (len - pos.(core)) (quantum_words - k) in
          Array.blit buf pos.(core) scratch k m;
          if pos.(core) + m = len then begin
            pending.(core) <- rest;
            pos.(core) <- 0
          end
          else pos.(core) <- pos.(core) + m;
          fill core (k + m)
        | _ -> k
      in
      while Array.exists (( <> ) []) pending do
        for core = 0 to cores - 1 do
          let len = fill core 0 in
          if len > 0 then replay core len
        done
      done
    in
    List.iter consume_group groups;
    let makespan =
      Array.fold_left Float.max 0.0
        (Array.mapi
           (fun core c -> (result ~machine ~quality ~flops:flops.(core) c).r_cycles)
           shares)
    in
    let total =
      result ~machine ~quality
        ~flops:(Array.fold_left ( + ) 0 flops)
        (Array.fold_left (map2_counts ( + )) zero shares)
    in
    { total with
      r_cycles = makespan;
      r_mflops = mflops machine ~flops:total.r_flops makespan }
end

(* Words the direct path collects before replaying them: the largest
   array the minor heap takes (Max_young_wosize), so a simulation's chunk
   never reaches the major heap. *)
let direct_chunk_words = 256

(* The direct single-series path: run the address-only interpreter into a
   streaming recorder whose chunks go straight through a fresh instance,
   storing no trace.  The walk is [consume]'s, and so is the derivation
   of forwarding from it. *)
let simulate ?layouts ~machine ~quality prog ~params ~init:_ =
  let sim = Sim.create machine in
  let r =
    Trace.streaming ~chunk_words:direct_chunk_words (Sim.consume_chunk sim)
  in
  let flops =
    Exec.Interp.addresses (Exec.Store.plan ?layouts prog ~params) r prog
      ~params
  in
  ignore (Trace.finish r);
  result ~machine ~quality ~flops (Sim.counts sim)

let pp_result fmt r =
  Format.fprintf fmt "flops=%d insts=%d accesses=%d cycles=%.0f mflops=%.1f"
    r.r_flops r.r_instances r.r_accesses r.r_cycles r.r_mflops;
  List.iter
    (fun s ->
      Format.fprintf fmt " %s[acc=%d hit=%d miss=%d evict=%d]" s.s_name
        s.s_accesses s.s_hits s.s_misses s.s_evictions)
    r.r_levels
