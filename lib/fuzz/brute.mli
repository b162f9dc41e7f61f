(** Ground truth by exhaustive enumeration.

    Everything here works by actually running things at small concrete sizes:
    interpret the program to record every array access (and lay those
    accesses out as the trace a cache simulation replays), test shackle
    legality by checking every dependent instance pair against the block
    order, and decide constraint systems by trying every integer point of
    a box.  Slow
    and obviously correct — the reference the clever layers are diffed
    against. *)

type access = {
  seq : int;  (** statement-instance counter in execution order *)
  stmt : Loopir.Ast.stmt;
  env : (string * int) list;  (** parameters plus enclosing loop values *)
  array : string;
  index : int list;  (** concrete subscript values *)
  is_write : bool;
}

val accesses : Loopir.Ast.program -> params:(string * int) list -> access list
(** Interpret the program (loops, guards) and record every read and write in
    execution order.  All accesses of one statement instance share a [seq]. *)

val record :
  Exec.Store.t ->
  Trace.recorder ->
  Loopir.Ast.program ->
  params:(string * int) list ->
  unit
(** The reference recording: emits each of {!accesses}, in order, into the
    recorder at its element address, the array's base plus the
    {!Exec.Store.offset} of its index in the store's layout (the store
    needs only that layout, {!Exec.Store.plan}).  Finished from a recorder
    of the same chunk size, its trace must equal
    {!Machine.Model.record}'s in words, chunks and bytes: the fuzz
    oracle's [Replay] layer and test_machine check exactly that.
    @raise Invalid_argument as {!Exec.Store.offset} does, at the first
    access outside its array, where the interpreter raises too. *)

val lex_lt : int array -> int array -> bool
(** Strict lexicographic order (over the common prefix). *)

val first_violation :
  Loopir.Ast.program ->
  Shackle.Spec.t ->
  params:(string * int) list ->
  (access * access) option
(** The definition of Theorem 1, checked literally: a pair of accesses to
    the same array element, at least one a write, from distinct statement
    instances [(src, dst)] with [src] executed first, whose block vector
    order is inverted — [block(dst) <lex block(src)].  [None] means the
    shackle is legal at these parameter values. *)

val legal :
  Loopir.Ast.program -> Shackle.Spec.t -> params:(string * int) list -> bool

val access_string : access -> string
(** One-line rendering for failure reports, e.g.
    [S2[I=1 J=3] write A(1, 3) #7]. *)

val feasible : Polyhedra.System.t -> bound:int -> int array option
(** Search the box [\[-bound, bound\]^dim] exhaustively; the first integer
    point satisfying the system, if any.  A complete decision procedure for
    systems that contain the same box (as {!Gen.system} ensures). *)
