(* Order statistics for latency samples, with the support rule printed
   next to every percentile: a percentile is trustworthy only when at
   least [min_beyond] samples lie beyond it (otherwise it is just one of
   the run's few largest values), and it is flagged when it sits in a gap
   of the sorted sample, where a tiny shift of the rank would move it by
   more than [gap_tol]. *)

let min_beyond = 10
let gap_tol = 0.05

(* Nearest-rank: the 1-based rank of the smallest sample with at least a
   [p] share of the samples at or below it.  The epsilon keeps
   [0.9 *. 100.] from rounding up to rank 91. *)
let rank ~n p =
  if n <= 0 then invalid_arg "Stat.rank: no samples";
  max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

type pct = {
  p : float;
  value : float;
  n : int;  (** samples behind the percentile *)
  beyond : int;  (** samples ranked strictly above it *)
  gap : bool;  (** a neighbouring order statistic differs by > [gap_tol] *)
}

let percentile sorted p =
  let n = Array.length sorted in
  let r = rank ~n p in
  let v = sorted.(r - 1) in
  let differs i =
    i >= 0 && i < n && Float.abs (sorted.(i) -. v) > gap_tol *. Float.abs v
  in
  { p; value = v; n; beyond = n - r; gap = differs (r - 2) || differs r }

let supported pc = pc.beyond >= min_beyond

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Median of a non-empty list: the mean of the two middle values when the
   length is even. *)
let median xs =
  let a = sorted_of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.median: empty";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
