(** Array storage for the interpreter.

    Arrays are flat [float array]s with a pluggable layout.  The flat offset
    doubles as the element address for the memory-hierarchy simulator, so
    choosing a layout is exactly the paper's "physical data reshaping"
    (Section 5.3, banded Cholesky in Section 7). *)

type layout =
  | Col_major  (** Fortran order, the paper's baseline assumption *)
  | Row_major
  | Banded of int
      (** [Banded bw]: rank-2 lower-band storage; element (i,j) with
          [0 <= i-j <= bw] lives at [(i-j) + (j-1)*(bw+1)], i.e. LAPACK
          band storage, column by column. *)

type arr = {
  name : string;
  extents : int array;
  layout : layout;
  strides : int array;
      (** the flat offset of 1-based indices is
          [Σ (idx.(d) - 1) * strides.(d)] in every layout (band storage:
          [[|1; bw|]]) *)
  data : float array;
  base : int;  (** element address of the first element, for tracing *)
}

type t

val plan :
  ?layouts:(string * layout) list ->
  Loopir.Ast.program ->
  params:(string * int) list ->
  t
(** The layout half of {!create}: evaluates array extents under [params],
    places the arrays one after another in a single address space and
    computes their strides, allocating no data (every [arr.data] is
    empty).  Such a store serves {!offset}, {!find} and the interpreter's
    address-only path, and nothing that reads or writes an element.
    @raise Invalid_argument on an unbound parameter, or on a [layouts]
    entry naming an array the program does not declare. *)

val create :
  ?layouts:(string * layout) list ->
  Loopir.Ast.program ->
  params:(string * int) list ->
  init:(string -> int array -> float) ->
  t
(** {!plan}, then allocate every array and fill it through [init] (in its
    layout, so a banded array holds only its band). *)

val find : t -> string -> arr
val offset : arr -> int array -> int
(** Flat offset of 1-based indices. @raise Invalid_argument on an index
    outside [1..extent] in any dimension, or outside the band for banded
    layout. *)

val get : t -> string -> int array -> float

val max_abs_diff : t -> t -> float
(** Largest elementwise difference across all arrays (both stores must have
    the same shape). *)

val arrays : t -> arr list
