(** Floating-point expressions: the right-hand sides of statements.
    Array references carry integer index expressions. *)

type ref_ = { array : string; idx : Expr.t list }

type binop = Fadd | Fsub | Fmul | Fdiv

type t =
  | Ref of ref_
  | Const of float
  | Neg of t
  | Bin of binop * t * t
  | Sqrt of t

val ref_ : string -> Expr.t list -> ref_
val read : string -> Expr.t list -> t
val f : float -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val sqrt_ : t -> t

val reads : t -> ref_ list
(** All array references, left to right. *)

val map_ref_indices : (Expr.t -> Expr.t) -> t -> t
val subst_ref_var : t -> string -> Expr.t -> t
val pp_ref : Format.formatter -> ref_ -> unit
val pp : Format.formatter -> t -> unit
val ref_equal : ref_ -> ref_ -> bool
