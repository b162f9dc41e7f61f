(* In-memory spans for the traced run.  Each span records its name, the
   op it belongs to, its parent, start and end times and the deltas of
   the work counters read at its boundaries.  Spans are only written out
   when the run ends, so recording costs two clock reads, two counter
   reads and a cons. *)

type t = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** -1 for a root span *)
  t0 : float;
  t1 : float;
  counters : (string * float) list;  (** after minus before, per key *)
}

type recorder = {
  mutable spans : t list;
  mutable next_id : int;
  mutable open_ : int list;  (** ids of the enclosing open spans *)
}

let recorder () = { spans = []; next_id = 0; open_ = [] }

let delta before after =
  List.map
    (fun (k, a) ->
      (k, a -. Option.value (List.assoc_opt k before) ~default:0.0))
    after

let no_counters () = []

(* [record r ~name ~op ~counters f] runs [f] inside a span whose parent is
   the innermost span still open on [r].  [counters] is read before and
   after [f]; the span keeps the differences. *)
let record r ~name ~op ?(counters = no_counters) f =
  let id = r.next_id in
  r.next_id <- id + 1;
  let parent = match r.open_ with p :: _ -> p | [] -> -1 in
  r.open_ <- id :: r.open_;
  let c0 = counters () in
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    r.open_ <- List.tl r.open_;
    r.spans <-
      { id; name; op; parent; t0; t1; counters = delta c0 (counters ()) }
      :: r.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Optional recording: the untraced path is one match. *)
let maybe r ~name ~op ?counters f =
  match r with None -> f () | Some r -> record r ~name ~op ?counters f

let spans r = List.rev r.spans

(* Total length of the union of [ivs] clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
      | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None ivs

(* A span's self time: its duration minus the part of its interval that
   its direct children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans

type layer = {
  calls : int;
  self_s : float;  (** summed over calls *)
  sums : (string * float) list;  (** counter deltas summed over calls *)
}

(* Per-name totals: call count, self seconds and counter sums. *)
let by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ calls = 0; self_s = 0.0; sums = [] }
      in
      let sums =
        List.fold_left
          (fun acc (k, v) ->
            (k, v +. Option.value (List.assoc_opt k acc) ~default:0.0)
            :: List.remove_assoc k acc)
          l.sums s.counters
      in
      Hashtbl.replace tbl s.name
        { calls = l.calls + 1; self_s = l.self_s +. self; sums })
    (self_times spans);
  tbl

let to_json_line s =
  Printf.sprintf
    "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"t0\":%.6f,\"t1\":%.6f,\"counters\":{%s}}"
    s.id s.name s.op s.parent s.t0 s.t1
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%S:%.17g" k v) s.counters))
