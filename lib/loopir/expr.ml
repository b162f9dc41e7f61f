module B = Bigint

type t =
  | Var of string
  | Const of int
  | Add of t * t
  | Sub of t * t
  | Mul of int * t
  | FloorDiv of t * int
  | CeilDiv of t * int
  | Max of t * t
  | Min of t * t

let var s = Var s
let int n = Const n
let max_ a b = Max (a, b)
let min_ a b = Min (a, b)

let max_list = function
  | [] -> invalid_arg "Expr.max_list: empty"
  | x :: tl -> List.fold_left max_ x tl

let min_list = function
  | [] -> invalid_arg "Expr.min_list: empty"
  | x :: tl -> List.fold_left min_ x tl

let rec max_args = function
  | Max (a, b) -> max_args a @ max_args b
  | e -> [ e ]

let rec min_args = function
  | Min (a, b) -> min_args a @ min_args b
  | e -> [ e ]

(* Floor division with positive divisor, correct for negative numerators. *)
let fdiv_int a d =
  if d <= 0 then raise Division_by_zero;
  let q = a / d and r = a mod d in
  if r < 0 then q - 1 else q

let cdiv_int a d = -fdiv_int (-a) d

let rec eval env = function
  | Var s -> env s
  | Const n -> n
  | Add (a, b) -> eval env a + eval env b
  | Sub (a, b) -> eval env a - eval env b
  | Mul (k, a) -> k * eval env a
  | FloorDiv (a, d) -> fdiv_int (eval env a) d
  | CeilDiv (a, d) -> cdiv_int (eval env a) d
  | Max (a, b) -> Stdlib.max (eval env a) (eval env b)
  | Min (a, b) -> Stdlib.min (eval env a) (eval env b)

let rec simplify e =
  match e with
  | Var _ | Const _ -> e
  | Add (a, b) -> begin
    match (simplify a, simplify b) with
    | Const x, Const y -> Const (x + y)
    | Const 0, b -> b
    | a, Const 0 -> a
    | Add (x, Const j), Const k ->
      if j + k = 0 then x else Add (x, Const (j + k))
    | Const j, b -> Add (b, Const j)
    | a, b -> Add (a, b)
  end
  | Sub (a, b) -> begin
    match (simplify a, simplify b) with
    | Const x, Const y -> Const (x - y)
    | a, Const 0 -> a
    | a, Const k -> simplify (Add (a, Const (-k)))
    | a, b -> Sub (a, b)
  end
  | Mul (k, a) -> begin
    match (k, simplify a) with
    | 0, _ -> Const 0
    | 1, a -> a
    | k, Const x -> Const (k * x)
    | k, a -> Mul (k, a)
  end
  | FloorDiv (a, d) -> begin
    match (simplify a, d) with
    | a, 1 -> a
    | Const x, d -> Const (fdiv_int x d)
    | a, d -> FloorDiv (a, d)
  end
  | CeilDiv (a, d) -> begin
    match (simplify a, d) with
    | a, 1 -> a
    | Const x, d -> Const (cdiv_int x d)
    | a, d -> CeilDiv (a, d)
  end
  | Max (_, _) -> rebuild_extremum ~is_max:true e
  | Min (_, _) -> rebuild_extremum ~is_max:false e

(* Flatten nested min/max chains, simplify the arguments, deduplicate and
   fold constants together. *)
and rebuild_extremum ~is_max e =
  let rec args e =
    match (e, is_max) with
    | Max (a, b), true | Min (a, b), false -> args a @ args b
    | _ -> [ simplify e ]
  in
  let all = args e in
  let consts, rest =
    List.partition_map
      (function Const n -> Left n | e -> Right e)
      all
  in
  let rest =
    List.fold_left
      (fun acc e -> if List.mem e acc then acc else acc @ [ e ])
      [] rest
  in
  let folded =
    match consts with
    | [] -> rest
    | c :: cs ->
      let v = List.fold_left (if is_max then Stdlib.max else Stdlib.min) c cs in
      rest @ [ Const v ]
  in
  match folded with
  | [] -> assert false
  | hd :: tl ->
    List.fold_left (fun a b -> if is_max then Max (a, b) else Min (a, b)) hd tl

let to_affine ~lookup ~dim e =
  let module A = Polyhedra.Affine in
  let rec go = function
    | Var s -> Option.map (A.var dim) (lookup s)
    | Const n -> Some (A.of_int dim n)
    | Add (a, b) -> combine A.add a b
    | Sub (a, b) -> combine A.sub a b
    | Mul (k, a) -> Option.map (A.scale_int k) (go a)
    | FloorDiv _ | CeilDiv _ | Max _ | Min _ -> None
  and combine f a b =
    match (go a, go b) with Some x, Some y -> Some (f x y) | _ -> None
  in
  go e

let of_affine ~names aff =
  let module A = Polyhedra.Affine in
  let acc = ref [] in
  for i = 0 to A.dim aff - 1 do
    let c = A.coeff aff i in
    if not (B.is_zero c) then
      acc := Mul (B.to_int_exn c, Var names.(i)) :: !acc
  done;
  let const = B.to_int_exn (A.const_of aff) in
  let terms = List.rev !acc in
  let base =
    match terms with
    | [] -> Const const
    | hd :: tl ->
      let sum = List.fold_left (fun a t -> Add (a, t)) hd tl in
      if const = 0 then sum else Add (sum, Const const)
  in
  simplify base

let rec vars = function
  | Var s -> [ s ]
  | Const _ -> []
  | Add (a, b) | Sub (a, b) | Max (a, b) | Min (a, b) ->
    List.append (vars a) (vars b)
  | Mul (_, a) | FloorDiv (a, _) | CeilDiv (a, _) -> vars a

let rec subst_var e name by =
  let go e = subst_var e name by in
  match e with
  | Var s -> if String.equal s name then by else e
  | Const _ -> e
  | Add (a, b) -> Add (go a, go b)
  | Sub (a, b) -> Sub (go a, go b)
  | Mul (k, a) -> Mul (k, go a)
  | FloorDiv (a, d) -> FloorDiv (go a, d)
  | CeilDiv (a, d) -> CeilDiv (go a, d)
  | Max (a, b) -> Max (go a, go b)
  | Min (a, b) -> Min (go a, go b)

let equal a b = a = b

(* Precedence-aware printing: sums at level 0, products at level 1. *)
let rec pp_prec prec fmt e =
  let open Format in
  match e with
  | Var s -> pp_print_string fmt s
  | Const n -> if n < 0 && prec > 0 then fprintf fmt "(%d)" n else pp_print_int fmt n
  | Add (a, Const n) when n < 0 ->
    if prec > 0 then fprintf fmt "(%a - %d)" (pp_prec 0) a (-n)
    else fprintf fmt "%a - %d" (pp_prec 0) a (-n)
  | Add (a, b) ->
    if prec > 0 then fprintf fmt "(%a + %a)" (pp_prec 0) a (pp_prec 0) b
    else fprintf fmt "%a + %a" (pp_prec 0) a (pp_prec 0) b
  | Sub (a, b) ->
    if prec > 0 then fprintf fmt "(%a - %a)" (pp_prec 0) a (pp_prec 1) b
    else fprintf fmt "%a - %a" (pp_prec 0) a (pp_prec 1) b
  | Mul (k, a) -> fprintf fmt "%d*%a" k (pp_prec 1) a
  | FloorDiv (a, d) -> fprintf fmt "floor((%a)/%d)" (pp_prec 0) a d
  | CeilDiv (a, d) -> fprintf fmt "ceil((%a)/%d)" (pp_prec 0) a d
  | Max (_, _) | Min (_, _) ->
    let is_max = match e with Max _ -> true | _ -> false in
    let rec args e =
      match (e, is_max) with
      | Max (a, b), true | Min (a, b), false -> args a @ args b
      | _ -> [ e ]
    in
    fprintf fmt "%s(%a)"
      (if is_max then "max" else "min")
      (pp_print_list
         ~pp_sep:(fun fmt () -> pp_print_string fmt ", ")
         (pp_prec 0))
      (args e)

let pp fmt e = pp_prec 0 fmt e
let to_string e = Format.asprintf "%a" pp e

(* Operator aliases come last so the whole module body keeps native integer
   arithmetic. *)
let ( + ) a b = Add (a, b)
let ( - ) a b = Sub (a, b)
let ( * ) k a = Mul (k, a)
