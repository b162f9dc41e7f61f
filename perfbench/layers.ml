(* The per-layer metrics of a traced run, in the order they are printed.
   Every workload reports every name; a layer a workload does not run
   reads 0.  Conventions: [*.self_s] is the mean self time per call of the
   layer's entry (its span minus its child spans); counters are per timed
   op; [*_frac] and [*_per_s] are ratios of run totals. *)

let all =
  [ ("trace.overhead_frac", "frac");
    ("parse.self_s", "s");
    ("parse.bytes", "bytes");
    ("dependence.self_s", "s");
    ("dependence.deps", "count");
    ("dependence.omega_queries", "count");
    ("legality.self_s", "s");
    ("legality.illegal_frac", "frac");
    ("omega.queries", "count");
    ("omega.fuel", "count");
    ("omega.splinters", "count");
    ("omega.memo_hit_frac", "frac");
    ("codegen.self_s", "s");
    ("codegen.omega_queries", "count");
    ("codegen.out_bytes", "bytes");
    ("specialize.self_s", "s");
    ("record.self_s", "s");
    ("record.words", "count");
    ("record.words_per_s", "1/s");
    ("replay.self_s", "s");
    ("replay.accesses", "count");
    ("replay.sp2-like.accesses_per_s", "1/s");
    ("replay.two-level.accesses_per_s", "1/s");
    ("replay.l1_hit_frac", "frac");
    ("bounds.self_s", "s");
    ("bounds.calls", "count");
    ("tune.self_s", "s");
    ("tune.enumerated", "count");
    ("tune.legal_frac", "frac");
    ("tune.variants_per_legal", "ratio");
    ("tune.enumerate_s", "s");
    ("tune.codegen_s", "s");
    ("tune.evaluate_s", "s");
    ("client.rtt_ms.p50", "ms");
    ("daemon.service_ms.p50", "ms");
    ("daemon.service_ms.p99", "ms");
    ("daemon.solves", "count");
    ("daemon.memo_hits", "count");
    ("diskcache.hits", "count");
    ("diskcache.appends", "count");
    ("daemon.errors", "count");
    ("daemon.shed", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count") ]

(* Lookups into a [Span.by_name] table. *)

let calls tbl name =
  match Hashtbl.find_opt tbl name with Some l -> l.Span.calls | None -> 0

let per_call tbl name =
  match Hashtbl.find_opt tbl name with
  | Some l when l.Span.calls > 0 -> l.self_s /. float_of_int l.calls
  | _ -> 0.0

let sum tbl name key =
  match Hashtbl.find_opt tbl name with
  | Some l -> Option.value (List.assoc_opt key l.Span.sums) ~default:0.0
  | None -> 0.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The benchmark process's GC work during ops, per op. *)
let gc (r : Bench.region) =
  let ops = float_of_int (max 1 (List.length r.samples)) in
  [ ("gc.minor_words_per_op", r.minor_words /. ops);
    ("gc.major_collections", float_of_int r.major_collections /. ops) ]
