module A = Polyhedra.Affine
module C = Polyhedra.Constr

exception Not_affine of string

type space = { names : string array; param_count : int }

let space_of (prog : Ast.program) ctx =
  { names = Array.of_list (prog.params @ Ast.loop_vars ctx);
    param_count = List.length prog.params }

let depth sp = Array.length sp.names - sp.param_count

let var_index sp name =
  let rec go i =
    if i >= Array.length sp.names then raise Not_found
    else if String.equal sp.names.(i) name then i
    else go (i + 1)
  in
  go 0

let to_affine sp e =
  let dim = Array.length sp.names in
  let lookup n = match var_index sp n with i -> Some i | exception Not_found -> None in
  match Expr.to_affine ~lookup ~dim e with
  | Some a -> a
  | None -> raise (Not_affine (Expr.to_string e))

(* [lo <= v] where lo may be a max of affine pieces; dually for uppers. *)
let rec lower_pieces = function
  | Expr.Max (a, b) -> lower_pieces a @ lower_pieces b
  | e -> [ e ]

let rec upper_pieces = function
  | Expr.Min (a, b) -> upper_pieces a @ upper_pieces b
  | e -> [ e ]

(* A floor or ceiling piece over a divisor [d > 0] is exactly affine once
   multiplied out: [v >= ceil(e/d)] is [d*v >= e], [v >= floor(e/d)] is
   [d*v >= e - d + 1], [v <= floor(e/d)] is [d*v <= e], and
   [v <= ceil(e/d)] is [d*v <= e + d - 1].  Any other piece must be affine
   itself: a [min] among lower pieces or a [max] among upper ones raises
   [Not_affine]. *)
let bound_constraints sp var ~lo ~hi =
  let v = A.var (Array.length sp.names) (var_index sp var) in
  let times d = A.scale_int d v
  and plus e k = A.add_const (to_affine sp e) (Bigint.of_int k) in
  let piece ~lower e =
    match (lower, e) with
    | true, Expr.CeilDiv (e, d) when d > 0 -> C.ge_of (times d) (plus e 0)
    | true, Expr.FloorDiv (e, d) when d > 0 -> C.ge_of (times d) (plus e (1 - d))
    | false, Expr.FloorDiv (e, d) when d > 0 -> C.le_of (times d) (plus e 0)
    | false, Expr.CeilDiv (e, d) when d > 0 -> C.le_of (times d) (plus e (d - 1))
    | true, e -> C.ge_of v (to_affine sp e)
    | false, e -> C.le_of v (to_affine sp e)
  in
  List.map (piece ~lower:true) (lower_pieces lo)
  @ List.map (piece ~lower:false) (upper_pieces hi)

let guard_constraint sp (g : Ast.guard) =
  let l = to_affine sp g.g_lhs and r = to_affine sp g.g_rhs in
  match g.g_rel with
  | Ast.Le -> [ C.le_of l r ]
  | Ast.Lt -> [ C.lt_of l r ]
  | Ast.Ge -> [ C.ge_of l r ]
  | Ast.Gt -> [ C.gt_of l r ]
  | Ast.Eq -> [ C.eq_of l r ]

let guard_constraints sp gs = List.concat_map (guard_constraint sp) gs

let domain_of prog ctx =
  let sp = space_of prog ctx in
  let cs =
    List.concat_map
      (fun (_, entry) ->
        match entry with
        | Ast.Eloop l -> bound_constraints sp l.var ~lo:l.lo ~hi:l.hi
        | Ast.Eif gs -> guard_constraints sp gs)
      ctx.Ast.trail
  in
  Polyhedra.System.make sp.names cs

let access sp (r : Fexpr.ref_) = List.map (to_affine sp) r.idx

let access_matrix prog ctx r =
  let sp = space_of prog ctx in
  let rows = access sp r in
  Array.of_list
    (List.map
       (fun a ->
         Array.init (depth sp) (fun j -> A.coeff a (sp.param_count + j)))
       rows)
