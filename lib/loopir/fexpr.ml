type ref_ = { array : string; idx : Expr.t list }

type binop = Fadd | Fsub | Fmul | Fdiv

type t =
  | Ref of ref_
  | Const of float
  | Neg of t
  | Bin of binop * t * t
  | Sqrt of t

let ref_ array idx = { array; idx }
let read array idx = Ref { array; idx }
let f x = Const x
let ( + ) a b = Bin (Fadd, a, b)
let ( - ) a b = Bin (Fsub, a, b)
let ( * ) a b = Bin (Fmul, a, b)
let ( / ) a b = Bin (Fdiv, a, b)
let sqrt_ a = Sqrt a

let rec reads = function
  | Ref r -> [ r ]
  | Const _ -> []
  | Neg a | Sqrt a -> reads a
  | Bin (_, a, b) -> List.append (reads a) (reads b)

let rec map_ref_indices fn = function
  | Ref r -> Ref { r with idx = List.map fn r.idx }
  | Const _ as e -> e
  | Neg a -> Neg (map_ref_indices fn a)
  | Sqrt a -> Sqrt (map_ref_indices fn a)
  | Bin (op, a, b) -> Bin (op, map_ref_indices fn a, map_ref_indices fn b)

let subst_ref_var e name by =
  map_ref_indices (fun ix -> Expr.subst_var ix name by) e

let pp_ref fmt r =
  Format.fprintf fmt "%s(%a)" r.array
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       Expr.pp)
    r.idx

let op_string = function Fadd -> "+" | Fsub -> "-" | Fmul -> "*" | Fdiv -> "/"

let rec pp_prec prec fmt e =
  let open Format in
  match e with
  | Ref r -> pp_ref fmt r
  | Const x ->
    if Float.is_integer x && Float.abs x < 1e15 then
      fprintf fmt "%.1f" x
    else fprintf fmt "%g" x
  | Neg a -> fprintf fmt "-%a" (pp_prec 2) a
  | Sqrt a -> fprintf fmt "sqrt(%a)" (pp_prec 0) a
  | Bin (op, a, b) ->
    let this = match op with Fadd | Fsub -> 0 | Fmul | Fdiv -> 1 in
    let right_prec = Stdlib.( + ) this 1 in
    if prec > this then
      fprintf fmt "(%a %s %a)" (pp_prec this) a (op_string op)
        (pp_prec right_prec) b
    else
      fprintf fmt "%a %s %a" (pp_prec this) a (op_string op)
        (pp_prec right_prec) b

let pp fmt e = pp_prec 0 fmt e

let ref_equal a b =
  String.equal a.array b.array
  && List.length a.idx = List.length b.idx
  && List.for_all2 Expr.equal a.idx b.idx
