(** The loop-nest IR: imperfectly nested loops with affine bounds, affine
    guards, and assignment statements.  This is the program class of the
    paper (Fortran-style dense linear algebra kernels), plus the min/max and
    floor/ceil bound forms that blocked code needs. *)

type rel = Le | Lt | Ge | Gt | Eq

type guard = { g_lhs : Expr.t; g_rel : rel; g_rhs : Expr.t }

type stmt = {
  id : int;       (** unique within a program *)
  label : string; (** e.g. "S1" *)
  lhs : Fexpr.ref_;
  rhs : Fexpr.t;
}

type t =
  | Loop of loop
  | If of guard list * t list  (** conjunction of guards *)
  | Stmt of stmt

and loop = { var : string; lo : Expr.t; hi : Expr.t; body : t list }

type array_decl = { a_name : string; extents : Expr.t list }

type program = {
  p_name : string;
  params : string list;
  arrays : array_decl list;
  body : t list;
}

val guard : Expr.t -> rel -> Expr.t -> guard
val loop : string -> Expr.t -> Expr.t -> t list -> t
val stmt : id:int -> label:string -> Fexpr.ref_ -> Fexpr.t -> t
val eval_guard : (string -> int) -> guard -> bool

(** {2 Contexts and traversal} *)

type entry =
  | Eloop of loop
  | Eif of guard list

type context = {
  trail : (int * entry) list;
      (** outermost first; [(sibling_index, node)] for each enclosing node *)
  stmt_index : int;  (** sibling index of the statement itself *)
}

val loop_vars : context -> string list

val statements : program -> (context * stmt) list
(** All statements in textual order with their contexts. *)

val common_prefix : context -> context -> entry list * (int * int)
(** Shared enclosing nodes of two statements and the sibling indices at the
    divergence point (used for textual-order comparison); the statement's own
    index serves when one trail is a prefix of the other. *)

val arity_ok : program -> bool
(** Every reference matches its array's declared rank, and every loop
    variable is fresh along its path. *)

val rename_loop_var : t -> string -> string -> t
(** Renames a loop variable, binder and occurrences alike; capture-free
    because loop variables are unique along any path.  Tests use it to
    build alpha-renamed programs. *)

val program_to_string : program -> string
