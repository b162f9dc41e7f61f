(** A minimal JSON tree with a deterministic serializer and a strict
    parser.  Hand-rolled on purpose: the repo takes no new dependencies,
    and the `BENCH_*.json` trajectory files must be schema-stable and
    byte-reproducible across runs so CI can diff them. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialize.  With [~pretty:true] (the default is compact) objects and
    lists are indented two spaces per level.  Output is deterministic:
    object fields keep their construction order, floats are printed with
    the shortest representation that round-trips ([%.15g] widened to
    [%.17g] when needed) and always carry a ['.'] or exponent so they
    re-parse as floats.  Serializing a NaN or infinite float raises
    [Invalid_argument] — they have no JSON spelling. *)

val of_string : string -> (t, string) result
(** Strict parser for the subset produced by [to_string] (which is plain
    standard JSON: no comments, no trailing commas).  Numbers with a
    fraction or exponent parse as [Float], others as [Int].  [Error msg]
    carries a byte offset. *)

val member : string -> t -> t option
(** [member k j] looks up field [k] when [j] is an [Obj]. *)

val equal : t -> t -> bool
(** Structural equality; [Float] fields compare by bit pattern so that
    round-tripping can be tested exactly. *)

(** {2 Field accessors}

    Each reads field [k] of an [Obj].  The [*_opt] accessors answer [None]
    for an absent or mistyped field and build no message, for readers that
    probe fields most inputs lack.  The [*_field] accessors return [Error]
    naming the field in one wording shared by every report validator and
    loader: [missing or non-int field "k"]. *)

val str_opt : string -> t -> string option
val int_opt : string -> t -> int option

val num_opt : string -> t -> float option
(** A number: an [Int] reads as its float. *)

val str_field : string -> t -> (string, string) result
val int_field : string -> t -> (int, string) result
val bool_field : string -> t -> (bool, string) result

val float_field : string -> t -> (float, string) result
(** A number: an [Int] reads as its float. *)

val list_field : string -> t -> (t list, string) result
val obj_field : string -> t -> ((string * t) list, string) result
