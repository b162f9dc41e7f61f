(* Shared plumbing for the four workloads: the kernel registry as the
   daemon resolves it, host and process readings from /proc, and the
   pass loop every workload runs. *)

let now = Unix.gettimeofday

(* Spans, work directories and sockets live here, inside the checkout. *)
let out_dir = Filename.concat "perfbench" "_out"

let kernels () = Kernels.Builders.all ()

let kernel name =
  match List.assoc_opt name (kernels ()) with
  | Some p -> p
  | None -> failwith ("no kernel " ^ name)

(* The shackled daemon's parameter and data conventions, so in-process
   answers and daemon answers are computed on the same inputs. *)
let params ~kernel ~n =
  if String.equal kernel "cholesky_banded" then [ ("N", n); ("BW", max 1 (n / 3)) ]
  else [ ("N", n) ]

let init ~kernel ~n = Kernels.Inits.for_kernel kernel ~n

let lookup ~kernel ~spec ~size =
  match Experiments.Specs.lookup ~kernel ~spec ~size with
  | Some s -> s
  | None -> failwith (Printf.sprintf "no spec %s/%s" kernel spec)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* ------------------------------------------------------------------ *)
(* Host and process readings                                           *)
(* ------------------------------------------------------------------ *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        (* /proc files report length 0, so read to end of file *)
        let b = Buffer.create 4096 and chunk = Bytes.create 65536 in
        let rec go () =
          match input ic chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes b chunk 0 n;
            go ()
        in
        go ();
        Some (Buffer.contents b))

let words s =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) s)
  |> List.filter (( <> ) "")

(* Linux reports /proc/stat times in USER_HZ ticks, which is 100 on every
   mainstream configuration. *)
let tick = 0.01

(* Seconds of CPU time the hypervisor gave to other guests while this
   host wanted to run: the "steal" column of the aggregate cpu line. *)
let steal_s () =
  match read_file "/proc/stat" with
  | None -> 0.0
  | Some s -> (
    match words (List.hd (String.split_on_char '\n' s)) with
    | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
      float_of_string steal *. tick
    | _ -> 0.0)

(* CPU time of this process: user + system, which on Linux is the
   scheduler's precise runtime and, with paravirtual steal accounting,
   excludes the time the host gave to other guests. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Per-thread (runtime seconds, times scheduled) of another process, from
   the nanosecond runtimes in /proc/PID/task/TID/schedstat.  Exact for
   threads that are blocked, which the daemon's are between requests. *)
let proc_threads pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | tids ->
    Array.to_list tids
    |> List.filter_map (fun tid ->
           match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
           | Some s -> (
             match words (String.trim s) with
             | ns :: _ :: slices :: _ ->
               Some (tid, (float_of_string ns *. 1e-9, int_of_string slices))
             | _ -> None)
           | None -> None)
    |> List.sort compare

(* CPU time of another process, summed over its threads. *)
let proc_cpu_s pid =
  List.fold_left (fun acc (_, (s, _)) -> acc +. s) 0.0 (proc_threads pid)

(* Peak resident set (VmHWM) in MiB of [pid], or of this process. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match read_file path with
  | None -> 0.0
  | Some s ->
    List.fold_left
      (fun acc line ->
        match words line with
        | "VmHWM:" :: kb :: _ -> float_of_string kb /. 1024.0
        | _ -> acc)
      0.0
      (String.split_on_char '\n' s)

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

(* Host speed.  Steal aside, the CPU itself does not run at one speed on a
   shared host: from one run to the next the same work took up to 1.7
   times the CPU time, as the load of the other guests (and with it the
   cores' clock) changed.  So every time is also normalized by a
   calibration: a fixed computation that uses none of the repository's
   code, timed around each stretch of ops (see [run_passes]).  A
   normalized time
   is the CPU time the work would have taken on a host that runs the
   calibration in [calibration_nominal_s]; the raw CPU time and the
   calibration's readings are printed beside it.  The calibration mixes
   what the workloads do: hashing, short-lived allocation and a sweep over
   a 512 KB array. *)
let calibration_nominal_s = 0.004

let calibration_work () =
  let h = Hashtbl.create 1024 and acc = ref 0 in
  for i = 1 to 20_000 do
    let k = i * 7919 land 4095 in
    Hashtbl.replace h k (i :: Option.value (Hashtbl.find_opt h k) ~default:[]);
    acc := !acc + (k lxor i)
  done;
  let a = Array.init 65536 (fun i -> i * 3) in
  for _ = 1 to 8 do
    for i = 0 to Array.length a - 1 do
      a.(i) <- a.(i) lxor a.(i * 17 land 65535)
    done
  done;
  ignore (Sys.opaque_identity (!acc, a))

(* The host's slowness now: calibration CPU time over its nominal, the
   median of three readings.  Each reading starts and ends on a collected
   heap, so its garbage is never charged to an op. *)
let slowness () =
  let reading () =
    Gc.major ();
    let c = cpu_s () in
    calibration_work ();
    let dt = cpu_s () -. c in
    Gc.major ();
    dt
  in
  Stat.median [ reading (); reading (); reading () ] /. calibration_nominal_s

(* Set up repeatedly and keep the last state.  Set-up time (normalized CPU
   time, like every time here) is the median of [setup_samples] readings,
   each the mean over as many consecutive set-ups as fill [min_sample_s]:
   a single sub-millisecond reading is mostly clock granularity and swings
   by more than a tenth from run to run. *)
let min_sample_s = 0.01
let setup_samples = 5

let setup_reps f =
  let times = ref [] and st = ref None in
  let s0 = slowness () in
  for _ = 1 to setup_samples do
    Gc.compact ();
    let t0 = cpu_s () and n = ref 0 in
    while !n = 0 || cpu_s () -. t0 < min_sample_s do
      st := Some (f ());
      incr n
    done;
    times := ((cpu_s () -. t0) /. float_of_int !n) :: !times
  done;
  let slow = (s0 +. slowness ()) /. 2.0 in
  (Stat.median !times /. slow, Option.get !st)

type region = {
  samples : float list;  (** per-op time: normalized CPU time of the working process, s *)
  wall_samples : float list;  (** per-op wall-clock time, s *)
  cpu_s : float;  (** raw CPU time of the working process over its ops *)
  wall_s : float;
  steal_s : float;  (** host steal over the region, summed over CPUs *)
  passes : int;
  pass_rates : float list;  (** per pass: ops per normalized CPU second *)
  slowness : float list;  (** per stretch of ops: the calibration's reading *)
  attempted : int;
  failures : string list;  (** one line per failed op *)
  minor_words : float;  (** allocated by this process during ops *)
  major_collections : int;  (** started during ops, forced ones excluded *)
}

(* Every pass does the same work, so each pass's rate is a sample of the
   same quantity; their median shrugs off the minority of passes the host
   slowed or sped up, where ops over the whole region's CPU time would
   average them in. *)
let ops_per_s r = Stat.median r.pass_rates

(* The host's speed drifts within a pass too, so it is re-read after every
   op that ends this much CPU time after the last reading. *)
let recalibrate_s = 0.25

(* Deal whole passes until the working process has spent [seconds] of
   normalized CPU time on them ([clock], this process by default), so a run
   does the same number of passes however fast the host runs that day.
   Time is CPU time, not
   wall-clock: on a shared host the hypervisor steals 5-40% of the wall
   time in bursts, which moves wall-clock readings by more than any bound
   a regression check could use.  Each op's time is then divided by the
   host's slowness around it: the mean of the readings that open and close
   its stretch of ops (see [slowness]).  Wall-clock, raw CPU time and
   steal are kept beside them.  An op returns its output; [check] runs
   outside the op's own timer and says what, if anything, is wrong with
   it. *)
let run_passes ~seconds ?(max_passes = max_int) ?(clock = cpu_s) ?(collect = true) ~deal
    ~op ~check () =
  let samples = ref [] and walls = ref [] and failures = ref [] in
  let attempted = ref 0 and passes = ref 0 and rates = ref [] and slows = ref [] in
  let minor = ref 0.0 and majors = ref 0 and spent = ref 0.0 and spent_norm = ref 0.0 in
  let steal0 = steal_s () and t0 = now () in
  while !spent_norm < seconds && !passes < max_passes do
    let dealt = deal !passes in
    (* a stretch: the raw times of the ops since the last reading *)
    let stretch = ref [] and since = ref 0.0 and normalized = ref 0.0 in
    let last = ref (slowness ()) in
    let close () =
      let next = slowness () in
      let slow = (!last +. next) /. 2.0 in
      List.iter
        (fun x ->
          samples := (x /. slow) :: !samples;
          normalized := !normalized +. (x /. slow))
        !stretch;
      slows := slow :: !slows;
      last := next;
      stretch := [];
      since := 0.0
    in
    Array.iteri
      (fun i d ->
        incr attempted;
        let g0 = Gc.quick_stat () in
        let c = clock () and w = now () in
        let out = try Ok (op ~pass:!passes ~index:i d) with e -> Error e in
        let g1 = Gc.quick_stat () in
        (* Collecting the op's own garbage before the next op starts, and
           charging it to the op, makes each op's time independent of the
           order the seed deals the ops in. *)
        if collect then Gc.major ();
        let dt = clock () -. c in
        walls := (now () -. w) :: !walls;
        stretch := dt :: !stretch;
        since := !since +. dt;
        spent := !spent +. dt;
        minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
        majors := !majors + (g1.Gc.major_collections - g0.Gc.major_collections);
        (match out with
        | Error e -> failures := Printexc.to_string e :: !failures
        | Ok out -> (
          match check d out with
          | Ok () -> ()
          | Error msg -> failures := msg :: !failures));
        if !since >= recalibrate_s then close ())
      dealt;
    if !stretch <> [] then close ();
    spent_norm := !spent_norm +. !normalized;
    rates := (float_of_int (Array.length dealt) /. !normalized) :: !rates;
    incr passes
  done;
  { samples = !samples;
    wall_samples = !walls;
    cpu_s = !spent;
    wall_s = now () -. t0;
    steal_s = steal_s () -. steal0;
    passes = !passes;
    pass_rates = !rates;
    slowness = !slows;
    attempted = !attempted;
    failures = List.rev !failures;
    minor_words = !minor;
    major_collections = !majors }

(* Mean op time, for comparing a traced region with an untraced one. *)
let mean_op_s r =
  List.fold_left ( +. ) 0.0 r.samples /. float_of_int (max 1 (List.length r.samples))

(* ------------------------------------------------------------------ *)
(* What a workload hands back to main                                 *)
(* ------------------------------------------------------------------ *)

type result = {
  setup_s : float;
  region : region;  (** the untraced timed region *)
  traced : region option;  (** the traced region of a --trace 1 run *)
  peak_rss_mb : float;
  checks : string list;
      (** failed whole-run checks: cross-checks, counters, zero-query rules *)
  evidence : (string * string) list;  (** extra steadiness lines *)
  layers : (string * float) list;  (** per-layer metrics; traced runs only *)
  spans : Span.t list;
}

(* Expected-table mismatch messages share one spelling. *)
let mismatch ~what ~key ~expected ~got =
  Printf.sprintf "%s %s: expected %s, got %s" what key expected got
