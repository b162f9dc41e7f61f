(** Integer index expressions.

    Array subscripts in analysable programs must be affine (no division,
    min or max); generated blocked code additionally uses floor/ceiling
    division and min/max in loop bounds, exactly as in the paper's figures
    (e.g. [do It = (t1-1)*25 + 1, min(t1*25, N)]). *)

type t =
  | Var of string
  | Const of int
  | Add of t * t
  | Sub of t * t
  | Mul of int * t
  | FloorDiv of t * int  (** divisor > 0 *)
  | CeilDiv of t * int   (** divisor > 0 *)
  | Max of t * t
  | Min of t * t

val var : string -> t
val int : int -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : int -> t -> t
val max_list : t list -> t
(** @raise Invalid_argument on the empty list *)

val min_list : t list -> t

val max_args : t -> t list
(** The arguments of a nest of [Max] nodes, left to right; any other
    expression is its own single argument.  [max_args (max_list es) = es]
    when no element of [es] is itself a [Max]. *)

val min_args : t -> t list
(** The same for [Min]. *)

val eval : (string -> int) -> t -> int
(** @raise Division_by_zero on division by a non-positive constant. *)

val simplify : t -> t
(** Constant folding and neutral-element elimination; keeps the expression
    readable in pretty-printed code. *)

val to_affine : lookup:(string -> int option) -> dim:int -> t -> Polyhedra.Affine.t option
(** Affine extraction for analysis: [lookup] maps variable names to indices
    in the target space.  Returns [None] for non-affine expressions
    (div/min/max) or unknown variables. *)

val of_affine : names:string array -> Polyhedra.Affine.t -> t
(** Inverse embedding, used by the code generator. *)

val vars : t -> string list
val subst_var : t -> string -> t -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
