(** A tiny deterministic pseudo-random stream (splitmix64).

    The fuzzer must be reproducible from a single integer seed across runs,
    machines and domain counts, so it cannot use [Random] (whose state is
    global and whose sequence is not part of any compatibility promise).
    Every generator takes an explicit stream and mutates it. *)

type t

val create : int -> t
(** A fresh stream from a seed.  Equal seeds give equal streams. *)

val split : t -> t
(** An independent stream derived from (and advancing) this one. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val range : t -> int -> int -> int
(** [range t lo hi] is uniform in the inclusive range [\[lo, hi\]]. *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)
