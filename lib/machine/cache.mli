(** A single set-associative LRU cache level. *)

type config = {
  size_bytes : int;
  line_bytes : int;  (** power of two *)
  assoc : int;
}

type t

val create : config -> t
(** @raise Invalid_argument on inconsistent geometry. *)

val access : t -> int -> bool
(** [access c addr] probes (and fills) the cache with the byte address,
    which must be non-negative; returns [true] on hit. *)

val accesses : t -> int
val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** Misses that displaced a resident line (capacity/conflict pressure, as
    opposed to cold fills into empty ways). *)

val reset : t -> unit
val config : t -> config
