(* Stopping on time is cooperative: OCaml domains cannot be killed, so a
   deadline is a wall-clock instant the running code polls.  There is one
   per domain, ambient: the solver reads it on every query, replay and
   the fuzz oracle poll it through [check] between work items, and
   [map_outcomes] installs one per attempt.  Code that never polls runs
   to completion. *)
exception Expired

let ambient : float Domain.DLS.key = Domain.DLS.new_key (fun () -> infinity)

let deadline () = Domain.DLS.get ambient

let with_deadline ~until f =
  let prev = Domain.DLS.get ambient in
  Domain.DLS.set ambient (Float.min prev until);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient prev) f

let check () =
  let d = Domain.DLS.get ambient in
  if d < infinity && Unix.gettimeofday () > d then raise Expired

type 'b outcome =
  | Ok of 'b
  | Failed of exn * Printexc.raw_backtrace
  | Timed_out

(* Deterministic jittered exponential backoff: the delay for retry [k] of
   slot [i] is [backoff_ms * 2^(k-1)] scaled by a jitter in [0.75, 1.25)
   derived from (i, k) — reproducible across runs, yet de-synchronized
   across slots so retried workers do not stampede in lockstep. *)
let backoff_ms = 20

let backoff_sleep ~index ~attempt =
  let base = float_of_int (backoff_ms * (1 lsl (attempt - 1))) /. 1000. in
  let jitter =
    float_of_int (Hashtbl.hash (index, attempt) land 0xff) /. 512.
  in
  Unix.sleepf (base *. (0.75 +. jitter))

let map_outcomes ?(domains = 1) ?timeout_ms ?(retries = 0) ?on_outcome f xs =
  let lock = Mutex.create () in
  let notify i o =
    match on_outcome with
    | None -> ()
    | Some g -> Mutex.protect lock (fun () -> g i o)
  in
  (* Read once in the calling domain: a spawned worker's own ambient
     deadline is none, so every attempt installs the caller's explicitly. *)
  let caller = deadline () in
  (* Every attempt gets a fresh deadline, so a retry is not born expired.
     [Expired] is terminal — a deadline is not a transient fault — while
     any other exception retries up to [retries] times. *)
  let run_one i x =
    let rec attempt k =
      let until =
        match timeout_ms with
        | None -> caller
        | Some ms ->
          Float.min caller
            (Unix.gettimeofday () +. (float_of_int ms /. 1000.))
      in
      match with_deadline ~until (fun () -> f x) with
      | y -> Ok y
      | exception Expired -> Timed_out
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        if k < retries then begin
          backoff_sleep ~index:i ~attempt:(k + 1);
          attempt (k + 1)
        end
        else Failed (e, bt)
    in
    let o = attempt 0 in
    notify i o;
    o
  in
  match xs with
  | [] -> []
  | _ when domains <= 1 -> List.mapi run_one xs
  | _ ->
    let input = Array.of_list xs in
    let n = Array.length input in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        out.(i) <- Some (run_one i input.(i));
        worker ()
      end
    in
    let spawned =
      List.init (min (domains - 1) (n - 1)) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join spawned;
    Array.to_list
      (Array.map (function Some o -> o | None -> assert false) out)

(* The plain pool: every task runs, then the lowest failing index's
   exception propagates with its backtrace.  No task can time out unless
   the caller's deadline passes. *)
let map ?domains f xs =
  List.map
    (function
      | Ok y -> y
      | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
      | Timed_out -> raise Expired)
    (map_outcomes ?domains f xs)
