(** Dense vectors over {!Bigint}. *)

type t = Bigint.t array

val make : int -> t
(** Zero vector of the given length. *)

val of_ints : int list -> t
val unit : int -> int -> t
(** [unit n i] is the [i]-th standard basis vector of dimension [n]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val add : t -> t -> t
val sub : t -> t -> t
val scale : Bigint.t -> t -> t
val dot : t -> t -> Bigint.t

val content : t -> Bigint.t
(** Gcd of all entries (non-negative; zero for the zero vector). *)

val divexact : t -> Bigint.t -> t
