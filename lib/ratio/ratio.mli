(** Exact rational numbers over {!Bigint}.

    Used by the rational Fourier-Motzkin projector and by the machine cost
    model.  Values are kept in canonical form: positive denominator and
    coprime numerator/denominator, so structural operations like [equal] and
    [compare] are cheap and total. *)

type t

val zero : t
val one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is the canonical rational [num/den].
    @raise Division_by_zero when [den] is zero. *)

val of_bigint : Bigint.t -> t
val of_int : int -> t
val of_ints : int -> int -> t

val num : t -> Bigint.t
val den : t -> Bigint.t
(** [den] is always positive. *)

val sign : t -> int
val is_zero : t -> bool

val neg : t -> t
val inv : t -> t
(** @raise Division_by_zero on zero. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero on zero divisor. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t

val floor : t -> Bigint.t
val ceil : t -> Bigint.t

val of_float : float -> t
(** Exact conversion: every finite float is a dyadic rational.
    @raise Invalid_argument on NaN or infinities. *)

val to_float : t -> float
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( ~- ) : t -> t
val ( = ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
