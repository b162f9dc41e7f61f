(** Dependence analysis over the loop IR.

    A dependence between statement instances [(S1, i)] (executed first) and
    [(S2, j)] is represented by a polyhedral system per lexicographic
    precedence level ("disjunct"), over the pair space
    [params ++ S1's loop variables ++ S2's loop variables].
    Systems are filtered with the Omega test, so every disjunct kept is
    genuinely realizable.  Theorem 1 of the paper then reduces legality of a
    shackle to: no disjunct stays satisfiable once "blocks visited in the
    wrong order" is added. *)

type kind = Flow | Anti | Output

type pair_space = {
  names : string array;
  param_count : int;
  src_depth : int;
  dst_depth : int;
}

type t = {
  kind : kind;
  src : Loopir.Ast.stmt;
  src_ctx : Loopir.Ast.context;
  dst : Loopir.Ast.stmt;
  dst_ctx : Loopir.Ast.context;
  src_ref : Loopir.Fexpr.ref_;
  dst_ref : Loopir.Fexpr.ref_;
  space : pair_space;
  disjuncts : Polyhedra.System.t list;
}

val src_var : pair_space -> int -> int
(** Pair-space index of the [k]-th (outermost-first) source loop variable. *)

val dst_var : pair_space -> int -> int

val analyze :
  ?params:(string * int) list ->
  ctx:Polyhedra.Omega.Ctx.t ->
  Loopir.Ast.program ->
  t list
(** All flow, anti and output dependences of the program.  [params] fixes
    symbolic parameters to concrete values (e.g. [("N", 100)]); unfixed
    parameters are left symbolic, constrained only to be >= 1.  [ctx] is
    the solver context charged for the disjunct-realizability queries;
    {!Pipeline.deps} passes the pipeline's own. *)

val pp : Format.formatter -> t -> unit
