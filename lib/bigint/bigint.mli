(** Arbitrary-precision signed integers.

    This is the arithmetic substrate for the polyhedral layer: exact
    Fourier-Motzkin elimination and the Omega test produce coefficients that
    overflow native integers, and no bignum package is available offline.

    Values are immutable and have exactly one representation each.  A value
    in [[-max_int, max_int]] is an immediate native [int] and arithmetic on
    such values runs on native ints; [add], [sub] and [mul] detect overflow
    and continue on sign-magnitude base-[2^15] digit arrays, which hold
    every other value ([min_int] included) and use schoolbook algorithms.
    A digit result that fits is turned back into an immediate.  So
    [Stdlib.(=)] coincides with {!equal}, and equal values have equal
    {!hash} and equal [Hashtbl.hash]: values and arrays of values can key
    polymorphic and functorial hash tables directly. *)

type t

(** {2 The immediate view}

    These read and build immediates with no call: an [external] in an
    interface inlines at every use, even in a build that does not inline
    across modules.  Arithmetic on immediates that must return exactly what
    {!add} or {!mul} returns detects overflow as they do (see bigint.ml)
    and calls them otherwise. *)

external is_small : t -> bool = "%obj_is_int"
(** [is_small x] holds exactly when [x] lies in [[-max_int, max_int]]. *)

external to_small : t -> int = "%identity"
(** The native value of an [x] for which [is_small x] holds; meaningless
    otherwise. *)

external of_small : int -> t = "%identity"
(** Unchecked: [of_small n] is [of_int n] for every [n <> min_int], and
    invalid for [min_int].  For results already known to be in range. *)

val zero : t
val one : t
val minus_one : t
val two : t

val of_int : int -> t

val to_int_opt : t -> int option
(** [to_int_opt x] is [Some n] when [x] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val of_string : string -> t
(** Accepts an optional leading [-] or [+] followed by decimal digits.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t
val succ : t -> t
val pred : t -> t

val div_rem : t -> t -> t * t
(** Truncated division: quotient rounds toward zero, and
    [a = q*b + r] with [|r| < |b|] and [sign r = sign a] (or [0]).
    @raise Division_by_zero *)

val fdiv : t -> t -> t
(** Floor division: rounds toward negative infinity. *)

val frem : t -> t -> t
(** [frem a b = a - b * fdiv a b]; has the sign of [b] (or zero). *)

val cdiv : t -> t -> t
(** Ceiling division: rounds toward positive infinity. *)

val divexact : t -> t -> t
(** Division known to be exact. @raise Failure if it is not. *)

val gcd : t -> t -> t
(** Non-negative; [gcd 0 0 = 0]. *)

val lcm : t -> t -> t

val max : t -> t -> t

val pow : t -> int -> t
(** [pow x n] for [n >= 0]. @raise Invalid_argument on negative exponent. *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( ~- ) : t -> t
val ( = ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
