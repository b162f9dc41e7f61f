(** End-to-end verification: run two programs over the same initial data and
    compare every array element.  Used to check that shackled code computes
    exactly what the original program computes (the instance sets are equal
    and only the order differs, so results agree up to floating-point
    reassociation). *)

val run_program :
  ?layouts:(string * Store.layout) list ->
  Loopir.Ast.program ->
  params:(string * int) list ->
  init:(string -> int array -> float) ->
  Store.t * int
(** Fresh store, execute on the value path, return (final store, flop
    count). *)

val max_diff :
  ?layouts:(string * Store.layout) list ->
  Loopir.Ast.program ->
  Loopir.Ast.program ->
  params:(string * int) list ->
  init:(string -> int array -> float) ->
  float
(** Largest elementwise difference between the two final stores. *)

val equivalent :
  ?layouts:(string * Store.layout) list ->
  Loopir.Ast.program ->
  Loopir.Ast.program ->
  params:(string * int) list ->
  init:(string -> int array -> float) ->
  bool
(** [max_diff <= 1e-9], a tolerance for reassociation noise; a check that
    wants bit-equal stores compares [max_diff] with [0.0]. *)
