(** Conjunctions of linear constraints over a named variable space.
    This is the "polyhedron" (really: Presburger conjunct) that dependence
    analysis, legality testing and code generation all manipulate. *)

type t = { dim : int; names : string array; cs : Constr.t list }

val make : string array -> Constr.t list -> t
(** @raise Invalid_argument if a constraint has the wrong dimension. *)

val universe : string array -> t
val dim : t -> int
val names : t -> string array
val constraints : t -> Constr.t list
val add : t -> Constr.t -> t
val add_list : t -> Constr.t list -> t

val extend : t -> string array -> t
(** [extend s extra] appends fresh variables named [extra]. *)

val rename_into : t -> int array -> t -> t
(** [rename_into s perm target] reinterprets [s]'s constraints in [target]'s
    space, mapping variable [i] to [perm.(i)], and conjoins with [target]. *)

val satisfied_by : t -> Bigint.t array -> bool
val satisfied_by_ints : t -> int array -> bool

val pp : Format.formatter -> t -> unit
