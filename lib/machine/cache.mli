(** A single set-associative LRU cache level. *)

type config = {
  size_bytes : int;
  line_bytes : int;  (** power of two *)
  assoc : int;
}

type t = {
  cfg : config;
  nsets : int;
  line_shift : int;  (** log2 line_bytes *)
  set_shift : int;  (** log2 nsets *)
  tags : int array;
      (** [tags.(set * assoc + way)], -1 when empty; way 0 is the most
          recently used *)
  mutable n_accesses : int;
  mutable n_hits : int;
  mutable n_evictions : int;
}
(** The fields are public so that the replay loop ({!Model}) can test a
    set's most recently used way inline and count those hits in locals:
    such a hit moves no tag, so it changes nothing but [n_accesses] and
    [n_hits], which the loop adds once per chunk.  Every other probe goes
    through {!access}. *)

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
