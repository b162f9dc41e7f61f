(** Enumeration of dynamic statement instances in program execution order.
    Used by the shackle reference semantics (the paper's definition of the
    transformed execution order) and by tests; the float interpreter lives
    in [lib/exec]. *)

type env = (string * int) list
(** Parameter and loop-variable bindings, innermost first. *)

val lookup : env -> string -> int

val iter_instances :
  Ast.program -> params:(string * int) list -> f:(Ast.stmt -> env -> unit) -> unit
(** Calls [f] on every executed statement instance, in program order.
    Guards are honoured. *)

val instances :
  Ast.program -> params:(string * int) list -> (Ast.stmt * env) list
