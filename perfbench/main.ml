(* The repository's benchmark: one seeded workload per run, timed from
   outside the library through its public entry points.

     main.exe --workload compile|simulate|tune|serve --seed N --seconds S
              --trace 0|1 [--daemon PATH]
     main.exe --regen WORKLOAD...   (rewrite perfbench/expected/*.txt)

   Every run checks every op's output and work counters against the
   committed expected tables, prints one human-readable row per metric
   with its steadiness evidence, and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones,
   measured from spans recorded around each layer's entry call, plus the
   tracing overhead against an untraced half of the same run. *)

(* The percentile reported as op_ms.tail: the highest of p99/p90/p80 that
   a run of this workload supports with at least ten samples beyond it at
   the benchmark's run length.  Fixed per workload so that every run, and
   every commit, reports the same order statistic. *)
let tail_p = function
  | "serve" -> 0.99
  | "tune" -> 0.80
  | _ -> 0.90

let usage () =
  prerr_endline
    "usage: main.exe --workload compile|simulate|tune|serve --seed N \
     --seconds S --trace 0|1 [--daemon PATH]\n\
    \       main.exe --regen WORKLOAD...";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  daemon : string;
  regen : string list;
}

let parse_args argv =
  let a =
    ref
      { workload = "";
        seed = 1;
        seconds = 10.0;
        trace = false;
        daemon = W_serve.default_daemon;
        regen = [] }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      a := { !a with workload = w };
      go rest
    | "--seed" :: n :: rest ->
      a := { !a with seed = int_of_string n };
      go rest
    | "--seconds" :: s :: rest ->
      a := { !a with seconds = float_of_string s };
      go rest
    | "--trace" :: t :: rest ->
      a := { !a with trace = (match t with "1" -> true | "0" -> false | _ -> usage ()) };
      go rest
    | "--daemon" :: p :: rest ->
      a := { !a with daemon = p };
      go rest
    | "--regen" :: rest ->
      let ws, rest = List.partition (fun s -> String.length s > 0 && s.[0] <> '-') rest in
      a := { !a with regen = ws };
      go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list argv)) with Failure _ -> usage ());
  !a

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let row name value unit note =
  Printf.printf "  %-32s %14.6g %-6s %s\n" name value unit note

let pct_note (pc : Stat.pct) =
  Printf.sprintf "(n=%d, beyond=%d%s%s)" pc.Stat.n pc.beyond
    (if Stat.supported pc then "" else ", UNSUPPORTED: fewer than 10 beyond")
    (if pc.gap then ", in a gap" else "")

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, unit, v) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       ms)

let write_spans workload seed spans =
  Bench.mkdir_p Bench.out_dir;
  let file =
    Filename.concat Bench.out_dir (Printf.sprintf "%s-seed%d.spans.jsonl" workload seed)
  in
  let oc = open_out_bin file in
  List.iter (fun s -> output_string oc (Span.to_json_line s ^ "\n")) spans;
  close_out oc;
  file

let report a (r : Bench.result) =
  let reg = r.Bench.region in
  let ops = List.length reg.Bench.samples in
  let sorted = Stat.sorted_of_list (List.map (fun s -> s *. 1000.0) reg.samples) in
  let regions = reg :: Option.to_list r.traced in
  let failures = List.concat_map (fun g -> g.Bench.failures) regions @ r.checks in
  let attempted = List.fold_left (fun acc g -> acc + g.Bench.attempted) 0 regions in
  let failed = min attempted (List.length failures) in
  Printf.printf "workload %s  seed %d  seconds %g  trace %d\n" a.workload a.seed
    a.seconds (if a.trace then 1 else 0);
  Printf.printf
    "  region: %d ops in %d passes; cpu %.3f s (working process), wall %.3f s, host steal %.3f s\n"
    ops reg.passes reg.cpu_s reg.wall_s reg.steal_s;
  let slow = Stat.sorted_of_list reg.slowness in
  Printf.printf
    "  host slowness (calibration over nominal): median %.3f, min %.3f, max %.3f; raw %.4g ops/cpu-s\n"
    (Stat.median reg.slowness) slow.(0) slow.(Array.length slow - 1)
    (float_of_int ops /. reg.cpu_s);
  let wall = Stat.sorted_of_list (List.map (fun s -> s *. 1000.0) reg.wall_samples) in
  Printf.printf "  wall-clock: %.4g ops/s, op p50 %.4g ms, op p%.0f %.4g ms\n"
    (float_of_int ops /. reg.wall_s)
    (Stat.percentile wall 0.5).Stat.value
    (tail_p a.workload *. 100.)
    (Stat.percentile wall (tail_p a.workload)).Stat.value;
  List.iter (fun (k, v) -> Printf.printf "  %s: %s\n" k v) r.evidence;
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) failures;
  let p50 = Stat.percentile sorted 0.50 in
  let tail = Stat.percentile sorted (tail_p a.workload) in
  let ops_per_s = Bench.ops_per_s reg in
  let metrics =
    if not a.trace then begin
      row "setup_s" r.setup_s "s" "(normalized cpu, median of the run's set-ups)";
      row "ops_per_s" ops_per_s "1/s" "(ops per normalized cpu second, median over passes)";
      row "op_ms.p50" p50.Stat.value "ms" (pct_note p50);
      List.iter
        (fun (p, min_ops) ->
          let pc = Stat.percentile sorted p in
          if ops >= min_ops then
            row (Printf.sprintf "op_ms.p%.0f" (p *. 100.)) pc.Stat.value "ms" (pct_note pc))
        [ (0.80, 50); (0.90, 100); (0.99, 1000) ];
      row "op_ms.tail" tail.Stat.value "ms"
        (Printf.sprintf "= op_ms.p%.0f %s" (tail_p a.workload *. 100.) (pct_note tail));
      row "peak_rss_mb" r.peak_rss_mb "MiB" "";
      row "failed_share" (float_of_int failed /. float_of_int (max 1 attempted)) "" "";
      [ ("setup_s", "s", r.setup_s);
        ("ops_per_s", "1/s", ops_per_s);
        ("op_ms.p50", "ms", p50.value);
        ("op_ms.tail", "ms", tail.value);
        ("peak_rss_mb", "MiB", r.peak_rss_mb) ]
    end
    else begin
      let traced = Option.get r.traced in
      let overhead = (Bench.mean_op_s traced /. Bench.mean_op_s reg) -. 1.0 in
      Printf.printf
        "  tracing overhead: mean op %.4g ms traced vs %.4g ms untraced (%+.1f%%)\n"
        (Bench.mean_op_s traced *. 1000.0)
        (Bench.mean_op_s reg *. 1000.0)
        (overhead *. 100.0);
      Printf.printf "  spans: %s (%d spans)\n"
        (write_spans a.workload a.seed r.spans)
        (List.length r.spans);
      let values = ("trace.overhead_frac", overhead) :: r.layers in
      List.map
        (fun (name, unit) ->
          let v = Option.value (List.assoc_opt name values) ~default:0.0 in
          row name v unit "";
          (name, unit, v))
        Layers.all
    end
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failures = []) attempted failed (json_metrics metrics)

let () =
  let a = parse_args Sys.argv in
  if a.regen <> [] then
    List.iter
      (function
        | "compile" -> W_compile.regen ()
        | "simulate" -> W_simulate.regen ()
        | "tune" -> W_tune.regen ()
        | "serve" -> W_serve.regen ()
        | w -> failwith ("unknown workload " ^ w))
      a.regen
  else begin
    if a.seconds <= 0.0 then usage ();
    let seed = a.seed and seconds = a.seconds and trace = a.trace in
    let r =
      match a.workload with
      | "compile" -> W_compile.run ~seed ~seconds ~trace
      | "simulate" -> W_simulate.run ~seed ~seconds ~trace
      | "tune" -> W_tune.run ~seed ~seconds ~trace
      | "serve" -> W_serve.run ~daemon:a.daemon ~seed ~seconds ~trace
      | _ -> usage ()
    in
    report a r
  end
