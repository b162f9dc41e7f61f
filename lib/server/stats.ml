module Json = Observe.Json

(* Bounded per-op latency reservoir: the first [capacity] samples are kept
   exactly (a smoke run or CI session fits entirely), later samples
   overwrite a deterministic rotating slot.  Count, sum and max stay
   exact regardless. *)

let capacity = 4096

type series = {
  mutable count : int;
  mutable sum : float;
  mutable max_s : float;
  samples : float array;
}

type t = {
  per_op : (string, series) Hashtbl.t;
  per_error : (string, int ref) Hashtbl.t;
  mutable n_errors : int;
  mutable n_collapses : int;
  mutable n_connections : int;
  mutable n_shed : int;
  mutable n_evicted : int;
  lock : Mutex.t;
}

let create () =
  { per_op = Hashtbl.create 8;
    per_error = Hashtbl.create 8;
    n_errors = 0;
    n_collapses = 0;
    n_connections = 0;
    n_shed = 0;
    n_evicted = 0;
    lock = Mutex.create () }

let record t ~op ~seconds =
  Mutex.protect t.lock (fun () ->
      let s =
        match Hashtbl.find_opt t.per_op op with
        | Some s -> s
        | None ->
          let s =
            { count = 0; sum = 0.0; max_s = 0.0;
              samples = Array.make capacity 0.0 }
          in
          Hashtbl.add t.per_op op s;
          s
      in
      s.samples.(s.count mod capacity) <- seconds;
      s.count <- s.count + 1;
      s.sum <- s.sum +. seconds;
      if seconds > s.max_s then s.max_s <- seconds)

let incr_error t ~code =
  Mutex.protect t.lock (fun () ->
      t.n_errors <- t.n_errors + 1;
      (match Hashtbl.find_opt t.per_error code with
      | Some r -> incr r
      | None -> Hashtbl.add t.per_error code (ref 1));
      if code = "overloaded" then t.n_shed <- t.n_shed + 1)


let incr_collapses t =
  Mutex.protect t.lock (fun () -> t.n_collapses <- t.n_collapses + 1)

let incr_connections t =
  Mutex.protect t.lock (fun () -> t.n_connections <- t.n_connections + 1)

let incr_evicted t =
  Mutex.protect t.lock (fun () -> t.n_evicted <- t.n_evicted + 1)

let collapses t = Mutex.protect t.lock (fun () -> t.n_collapses)
let shed t = Mutex.protect t.lock (fun () -> t.n_shed)
let evicted t = Mutex.protect t.lock (fun () -> t.n_evicted)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1 |> max 0))

let ms s = Float.round (s *. 1e6) /. 1e3 (* millisecond value, µs precision *)

let series_json s =
  let kept = min s.count capacity in
  let sorted = Array.sub s.samples 0 kept in
  Array.sort compare sorted;
  Json.Obj
    [ ("count", Json.Int s.count);
      ("p50_ms", Json.Float (ms (percentile sorted 0.50)));
      ("p90_ms", Json.Float (ms (percentile sorted 0.90)));
      ("p99_ms", Json.Float (ms (percentile sorted 0.99)));
      ("p999_ms", Json.Float (ms (percentile sorted 0.999)));
      ("max_ms", Json.Float (ms s.max_s));
      ( "mean_ms",
        Json.Float
          (ms (if s.count = 0 then 0.0 else s.sum /. float_of_int s.count)) ) ]

let to_json t =
  Mutex.protect t.lock (fun () ->
      let ops =
        Hashtbl.fold (fun op s acc -> (op, s) :: acc) t.per_op []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let codes =
        Hashtbl.fold (fun code r acc -> (code, !r) :: acc) t.per_error []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      Json.Obj
        [ ( "requests",
            Json.Int (List.fold_left (fun acc (_, s) -> acc + s.count) 0 ops) );
          ("errors", Json.Int t.n_errors);
          ( "error_codes",
            Json.Obj (List.map (fun (c, n) -> (c, Json.Int n)) codes) );
          ("batch_collapses", Json.Int t.n_collapses);
          ("connections", Json.Int t.n_connections);
          ("shed", Json.Int t.n_shed);
          ("evicted", Json.Int t.n_evicted);
          ("ops", Json.Obj (List.map (fun (op, s) -> (op, series_json s)) ops))
        ])
