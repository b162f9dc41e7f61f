(* Cancellation is cooperative: OCaml domains cannot be killed, so a
   "timeout" is a deadline the task itself polls — directly via
   [Token.check] between work items, or indirectly by wiring
   [Token.cancelled] into a solver context's cancel hook.  A task that
   never polls runs to completion and counts as [Ok]. *)
module Token = struct
  type t = { deadline : float; (* infinity = none *) flag : bool Atomic.t }

  exception Expired

  let none () = { deadline = infinity; flag = Atomic.make false }

  let with_deadline_ms ms =
    { deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.);
      flag = Atomic.make false }

  let cancelled t =
    Atomic.get t.flag
    || (t.deadline < infinity && Unix.gettimeofday () > t.deadline)

  let check t = if cancelled t then raise Expired
end

type 'b outcome =
  | Ok of 'b
  | Failed of exn * Printexc.raw_backtrace
  | Timed_out

(* Deterministic jittered exponential backoff: the delay for retry [k] of
   slot [i] is [backoff_ms * 2^(k-1)] scaled by a jitter in [0.75, 1.25)
   derived from (i, k) — reproducible across runs, yet de-synchronized
   across slots so retried workers do not stampede in lockstep. *)
let backoff_sleep ~backoff_ms ~index ~attempt =
  let base = float_of_int (backoff_ms * (1 lsl (attempt - 1))) /. 1000. in
  let jitter =
    float_of_int (Hashtbl.hash (index, attempt) land 0xff) /. 512.
  in
  Unix.sleepf (base *. (0.75 +. jitter))

let map_outcomes ?(domains = 1) ?timeout_ms ?(retries = 0) ?(backoff_ms = 20)
    ?on_outcome f xs =
  let lock = Mutex.create () in
  let notify i o =
    match on_outcome with
    | None -> ()
    | Some g -> Mutex.protect lock (fun () -> g i o)
  in
  let fresh_token () =
    match timeout_ms with
    | None -> Token.none ()
    | Some ms -> Token.with_deadline_ms ms
  in
  (* Every attempt gets a fresh token, so a retry is not born expired.
     [Token.Expired] is terminal — a deadline is not a transient fault —
     while any other exception retries up to [retries] times. *)
  let run_one i x =
    let rec attempt k =
      let tok = fresh_token () in
      match f tok x with
      | y -> Ok y
      | exception Token.Expired -> Timed_out
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        if k < retries then begin
          backoff_sleep ~backoff_ms ~index:i ~attempt:(k + 1);
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
   exception propagates with its backtrace.  The tasks take no token, so
   none can time out unless one raises [Token.Expired] itself. *)
let map ?domains f xs =
  List.map
    (function
      | Ok y -> y
      | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
      | Timed_out -> raise Token.Expired)
    (map_outcomes ?domains (fun _ x -> f x) xs)
