(** Blockings of data arrays by sets of parallel cutting planes
    (Section 4.1 of the paper).

    A blocking of an array of rank [r] is an ordered list of cutting-plane
    sets.  Each set has an integer normal vector [n] (length [r]), a width
    [w > 0] and an offset [o]; the block coordinate of a data point [a]
    along this set is the unique [z] with

      [o + (z-1)*w  <=  n . a  <=  o + z*w - 1]

    i.e. [z = floor((n.a - o) / w) + 1].  Block coordinates are ordered
    lexicographically in the order the plane sets are listed; this is the
    order in which the processor touches the blocks. *)

type plane = { normal : int list; width : int; offset : int }

type t = { array : string; rank : int; planes : plane list }

val make : array:string -> rank:int -> plane list -> t
(** @raise Invalid_argument on zero/negative width, wrong normal length or
    zero normal. *)

val coords_dim : t -> int

val blocks_2d : array:string -> size:int -> t
(** The Figure 4 blocking: square [size x size] blocks of a rank-2 array,
    cutting planes matrix [[1 0],[0 1]], i.e. row-block-major (top to
    bottom, left to right). *)

val blocks_2d_colmajor : array:string -> size:int -> t
(** Same blocks visited column-of-blocks first. *)

val by_columns : array:string -> width:int -> t
(** Vertical panels of [width] columns of a rank-2 array (used for QR). *)

val storage_order : array:string -> rank:int -> [ `Col_major | `Row_major ] -> t
(** 1x1 blocks visited in storage order (unit-separation cutting planes,
    Section 4.2); with [`Col_major] the last subscript varies slowest...
    i.e. blocks are visited column by column, as Fortran stores them. *)

val coord_exprs : t -> Loopir.Expr.t list -> Loopir.Expr.t list
(** Block coordinates of the data point given by subscript expressions:
    [floor((n.a - o)/w) + 1] per plane set. *)

val coord_of_point : t -> int array -> int array
(** Runtime block coordinate of a concrete data point. *)

val membership_guards :
  t -> Loopir.Expr.t list -> coords:Loopir.Expr.t list -> Loopir.Ast.guard list
(** Guards pinning the data point into the block with the given coordinate
    expressions — the conditionals of the paper's Figure 5. *)

val membership_constraints :
  t ->
  point:Polyhedra.Affine.t list ->
  coord_vars:int list ->
  Polyhedra.Constr.t list
(** Same, as polyhedral constraints: the subscript forms [point] and the
    block-coordinate variables live in a common space. *)

val range_constraints :
  t ->
  extent_affs:Polyhedra.Affine.t list ->
  coord_vars:int list ->
  Polyhedra.Constr.t list
(** Affine form of "the block with these coordinates intersects the data
    space [1..extent] in every dimension" — the constraints the naive
    coordinate loops enforce.  Redundant given membership + domain, but
    making them explicit lets Fourier-Motzkin produce the tight coordinate
    bounds of the paper's figures. *)

val coord_ranges :
  t -> extents:Loopir.Expr.t list -> (Loopir.Expr.t * Loopir.Expr.t) list
(** Inclusive [lo, hi] bounds of each block coordinate, from the array
    extents (subscripts range over [1..extent]). *)

val pp : Format.formatter -> t -> unit
