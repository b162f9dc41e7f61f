(** Dense matrices over {!Bigint}, with the exact operations the shackle
    layer needs: rank (for Theorem 2's row-span test) and rational solving. *)

type t = Bigint.t array array
(** Row-major; possibly zero rows. All rows must share a length. *)

val of_int_rows : int list list -> t
val rows : t -> int
val transpose : t -> t
val identity : int -> t
val mul : t -> t -> t
val equal : t -> t -> bool

val rank : t -> int
(** Rank over the rationals, computed by fraction-free Gaussian
    elimination. *)

val in_row_span : t -> Vec.t -> bool
(** [in_row_span m v] is true when [v] is a rational linear combination of
    the rows of [m].  This is the test of Theorem 2 in the paper: a
    reference with access matrix row [v] is constrained by shackled
    references with access matrix [m] iff [v] lies in the row span. *)

val rows_span : t -> t -> bool
(** [rows_span m f] is true when every row of [f] is in the row span of
    [m]. *)
