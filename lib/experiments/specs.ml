(* The shackle specifications used throughout the evaluation — one place so
   examples, benches and the CLI agree on what "the" blocked version of each
   kernel is. *)

module Ast = Loopir.Ast
module E = Loopir.Expr
module Fexpr = Loopir.Fexpr
module Spec = Shackle.Spec
module Blocking = Shackle.Blocking

let v = E.var
let rf a idx = Fexpr.ref_ a (List.map v idx)

(* matmul: block C, or the C x A product of Section 6.1 (Figure 3). *)
let matmul_c ~size =
  [ Spec.factor (Blocking.blocks_2d ~array:"C" ~size) [ ("S1", rf "C" [ "I"; "J" ]) ] ]

let matmul_ca ~size =
  matmul_c ~size
  @ [ Spec.factor (Blocking.blocks_2d ~array:"A" ~size)
        [ ("S1", rf "A" [ "I"; "K" ]) ] ]

(* two-level blocking of Section 6.3 (Figure 10) *)
let matmul_two_level ~outer ~inner =
  matmul_ca ~size:outer @ matmul_ca ~size:inner

(* right-looking Cholesky: the write shackle (Figure 7), the read shackle,
   and their products (Section 6.1: one order gives fully-blocked
   left-looking, the other fully-blocked right-looking). *)
let cholesky_write ~size =
  [ Spec.factor (Blocking.blocks_2d ~array:"A" ~size)
      [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" [ "I"; "J" ]);
        ("S3", rf "A" [ "L"; "K" ]) ] ]

let cholesky_read ~size =
  [ Spec.factor (Blocking.blocks_2d ~array:"A" ~size)
      [ ("S1", rf "A" [ "J"; "J" ]); ("S2", rf "A" [ "J"; "J" ]);
        ("S3", rf "A" [ "K"; "J" ]) ] ]

let cholesky_fully_blocked ~size =
  Spec.product (cholesky_write ~size) (cholesky_read ~size)

let cholesky_left_looking_blocked ~size =
  Spec.product (cholesky_read ~size) (cholesky_write ~size)

(* banded Cholesky uses the same write shackle on the restricted code *)
let cholesky_banded_write ~size = cholesky_write ~size

(* QR: columns only (Section 7: "dependences prevent complete
   two-dimensional blocking") *)
let qr_columns ~width =
  let col = Blocking.by_columns ~array:"A" ~width in
  [ Spec.factor col
      [ ("S0", rf "A" [ "k"; "k" ]); ("S1", rf "A" [ "i"; "k" ]);
        ("S2", rf "A" [ "k"; "k" ]); ("S3", rf "A" [ "i"; "k" ]);
        ("S4", rf "A" [ "k"; "j" ]); ("S5", rf "A" [ "i"; "j" ]);
        ("S6", rf "A" [ "i"; "j" ]) ] ]

(* Gmtry: Gaussian elimination, blocked in both dimensions like Cholesky *)
let gmtry_write ~size =
  [ Spec.factor (Blocking.blocks_2d ~array:"A" ~size)
      [ ("S1", rf "A" [ "i"; "k" ]); ("S2", rf "A" [ "i"; "j" ]) ] ]

(* ADI: 1x1 blocks of B in storage order, both statements shackled to
   B(i-1,k) (Section 7, Figure 14) *)
let adi_fused () =
  let blk = Blocking.storage_order ~array:"B" ~rank:2 `Col_major in
  let bref = Fexpr.ref_ "B" [ E.Sub (E.var "i", E.Const 1); E.var "k" ] in
  [ Spec.factor blk [ ("S1", bref); ("S2", bref) ] ]

(* The symbolic (kernel, spec name) -> spec table: the single source of
   truth behind "shacklec --spec", the shackled daemon's resolver and the
   bench server figure.  A kernel's first spec is its canonical blocking,
   which the name "default" also selects. *)
let table =
  let cholesky =
    [ ("write", cholesky_write); ("read", cholesky_read);
      ("full", cholesky_fully_blocked);
      ("left", cholesky_left_looking_blocked) ]
  in
  [ ( "matmul",
      [ ("c", matmul_c); ("ca", matmul_ca);
        ( "two-level",
          fun ~size ->
            matmul_two_level ~outer:size ~inner:(max 2 (size / 8)) ) ] );
    ("cholesky_right", cholesky);
    ("cholesky_left", cholesky);
    ("cholesky_banded", [ ("write", cholesky_banded_write) ]);
    ("qr", [ ("columns", fun ~size -> qr_columns ~width:size) ]);
    ("gmtry", [ ("write", gmtry_write) ]);
    ("adi", [ ("fused", fun ~size:_ -> adi_fused ()) ]) ]

let kernel_specs kernel = Option.value ~default:[] (List.assoc_opt kernel table)
let names kernel = List.map fst (kernel_specs kernel)

let lookup ~kernel ~spec ~size =
  let specs = kernel_specs kernel in
  let build =
    match (spec, specs) with
    | "default", (_, build) :: _ -> Some build
    | _ -> List.assoc_opt spec specs
  in
  Option.map (fun build -> build ~size) build
