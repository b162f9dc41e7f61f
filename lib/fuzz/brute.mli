(** Ground truth by exhaustive enumeration.

    Everything here works by actually running things at small concrete sizes:
    enumerate every statement instance in program order (the one walker
    behind everything else here), record every array access (and lay those
    accesses out as the trace a cache simulation replays), order the
    instances as the paper defines a shackled execution, test shackle
    legality by checking every dependent instance pair against the block
    order, and decide constraint systems by trying every integer point of
    a box.  Slow and obviously correct — the reference the clever layers
    are diffed against. *)

type instance = {
  seq : int;  (** position in program execution order, from 0 *)
  stmt : Loopir.Ast.stmt;
  env : (string * int) list;
      (** enclosing loop values, innermost first, then the parameters *)
}

type access = {
  inst : instance;  (** the statement instance making the access *)
  array : string;
  index : int list;  (** concrete subscript values *)
  is_write : bool;
}

val instances : Loopir.Ast.program -> params:(string * int) list -> instance list
(** Interpret the program's loops and guards and list every executed
    statement instance in program order. *)

val accesses : Loopir.Ast.program -> params:(string * int) list -> access list
(** Every read and write of {!instances}, in execution order: an
    instance's reads left to right, then its write. *)

val record :
  Exec.Store.t ->
  Trace.recorder ->
  Loopir.Ast.program ->
  params:(string * int) list ->
  unit
(** The reference recording: emits each of {!accesses} as the walk reaches
    it into the recorder at its element address, the array's base plus the
    {!Exec.Store.offset} of its index in the store's layout (the store
    needs only that layout, {!Exec.Store.plan}).  Finished from a recorder
    of the same chunk size, its trace must equal
    {!Machine.Model.record}'s in words, chunks and bytes: the fuzz
    oracle's [Replay] layer and test_machine check exactly that.
    @raise Invalid_argument as {!Exec.Store.offset} does, at the first
    access outside its array, where the interpreter raises too. *)

val lex_lt : int array -> int array -> bool
(** Strict lexicographic order (over the common prefix). *)

val order :
  Loopir.Ast.program ->
  Shackle.Spec.t ->
  params:(string * int) list ->
  instance list
(** The paper's shackled execution: {!instances} sorted by block vector
    ({!Shackle.Spec.block_vector}, ordered by {!lex_lt}); the sort is
    stable, so within a block the program order is kept. *)

val same_instances : instance list -> instance list -> bool
(** The two lists hold the same statement instances (statement and
    bindings), in any order: a shackled order is a permutation of the
    original instances. *)

val first_violation :
  Loopir.Ast.program ->
  Shackle.Spec.t ->
  params:(string * int) list ->
  (access * access) option
(** The definition of Theorem 1, checked on every access: a pair of
    accesses to the same array element, at least one a write, from distinct
    statement instances [(src, dst)] with [src] executed first, whose block
    vector order is inverted — [block(dst) <lex block(src)].  [dst] is the
    first access in execution order that completes such a pair, and [src]
    the earliest of its partners with the greatest block vector.  [None]
    means the shackle is legal at these parameter values. *)

val legal :
  Loopir.Ast.program -> Shackle.Spec.t -> params:(string * int) list -> bool

val access_string : access -> string
(** One-line rendering for failure reports, e.g.
    [S2[I=1 J=3] write A(1, 3) #7]. *)

val feasible : Polyhedra.System.t -> bound:int -> int array option
(** Search the box [\[-bound, bound\]^dim] exhaustively; the first integer
    point satisfying the system, if any.  A complete decision procedure for
    systems that contain the same box (as {!Gen.system} ensures). *)
