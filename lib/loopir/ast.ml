type rel = Le | Lt | Ge | Gt | Eq

type guard = { g_lhs : Expr.t; g_rel : rel; g_rhs : Expr.t }

type stmt = {
  id : int;
  label : string;
  lhs : Fexpr.ref_;
  rhs : Fexpr.t;
}

type t =
  | Loop of loop
  | If of guard list * t list
  | Stmt of stmt

and loop = { var : string; lo : Expr.t; hi : Expr.t; body : t list }

type array_decl = { a_name : string; extents : Expr.t list }

type program = {
  p_name : string;
  params : string list;
  arrays : array_decl list;
  body : t list;
}

let guard g_lhs g_rel g_rhs = { g_lhs; g_rel; g_rhs }
let loop var lo hi body = Loop { var; lo; hi; body }
let stmt ~id ~label lhs rhs = Stmt { id; label; lhs; rhs }

let eval_guard env g =
  let l = Expr.eval env g.g_lhs and r = Expr.eval env g.g_rhs in
  match g.g_rel with
  | Le -> l <= r
  | Lt -> l < r
  | Ge -> l >= r
  | Gt -> l > r
  | Eq -> l = r

type entry =
  | Eloop of loop
  | Eif of guard list

type context = {
  trail : (int * entry) list;
  stmt_index : int;
}

let loops_of ctx =
  List.filter_map
    (fun (_, e) -> match e with Eloop l -> Some l | Eif _ -> None)
    ctx.trail

let loop_vars ctx = List.map (fun (l : loop) -> l.var) (loops_of ctx)

let statements prog =
  let acc = ref [] in
  let rec go trail idx node =
    match node with
    | Stmt s -> acc := ({ trail = List.rev trail; stmt_index = idx }, s) :: !acc
    | Loop l -> List.iteri (fun i n -> go ((idx, Eloop l) :: trail) i n) l.body
    | If (gs, body) ->
      List.iteri (fun i n -> go ((idx, Eif gs) :: trail) i n) body
  in
  List.iteri (fun i n -> go [] i n) prog.body;
  List.rev !acc

let common_prefix c1 c2 =
  let rec go t1 t2 acc =
    match (t1, t2) with
    | (i1, e1) :: r1, (i2, _) :: r2 when i1 = i2 ->
      (* same sibling under the same parent: same node *)
      go r1 r2 (e1 :: acc)
    | (i1, _) :: _, (i2, _) :: _ -> (List.rev acc, (i1, i2))
    | (i1, _) :: _, [] -> (List.rev acc, (i1, c2.stmt_index))
    | [], (i2, _) :: _ -> (List.rev acc, (c1.stmt_index, i2))
    | [], [] -> (List.rev acc, (c1.stmt_index, c2.stmt_index))
  in
  go c1.trail c2.trail []

let arity_ok prog =
  let rank name =
    Option.map
      (fun (d : array_decl) -> List.length d.extents)
      (List.find_opt (fun d -> String.equal d.a_name name) prog.arrays)
  in
  let ref_ok (r : Fexpr.ref_) = rank r.array = Some (List.length r.idx) in
  List.for_all
    (fun (ctx, s) ->
      let vars = loop_vars ctx in
      List.length (List.sort_uniq String.compare vars) = List.length vars
      && ref_ok s.lhs
      && List.for_all ref_ok (Fexpr.reads s.rhs))
    (statements prog)

let rec rename_loop_var node from into =
  let rn_expr e = Expr.subst_var e from (Expr.var into) in
  let rn_guard g = { g with g_lhs = rn_expr g.g_lhs; g_rhs = rn_expr g.g_rhs } in
  match node with
  | Stmt s ->
    Stmt
      { s with
        lhs = { s.lhs with idx = List.map rn_expr s.lhs.idx };
        rhs = Fexpr.subst_ref_var s.rhs from (Expr.var into) }
  | If (gs, body) ->
    If (List.map rn_guard gs, List.map (fun n -> rename_loop_var n from into) body)
  | Loop l ->
    (* Loop variable names are unique along any path (see [arity_ok]), so
       renaming the binder together with every occurrence is capture-free. *)
    Loop
      { var = (if String.equal l.var from then into else l.var);
        lo = rn_expr l.lo;
        hi = rn_expr l.hi;
        body = List.map (fun n -> rename_loop_var n from into) l.body }

let rel_string = function
  | Le -> "<="
  | Lt -> "<"
  | Ge -> ">="
  | Gt -> ">"
  | Eq -> "=="

let pp_guard fmt g =
  Format.fprintf fmt "%a %s %a" Expr.pp g.g_lhs (rel_string g.g_rel) Expr.pp
    g.g_rhs

let rec pp fmt node =
  let open Format in
  match node with
  | Stmt s ->
    fprintf fmt "@[<h>%s: %a = %a@]" s.label Fexpr.pp_ref s.lhs Fexpr.pp s.rhs
  | If (gs, body) ->
    fprintf fmt "@[<v 2>if (%a) then@,%a@]@,end if"
      (pp_print_list
         ~pp_sep:(fun fmt () -> pp_print_string fmt " and ")
         pp_guard)
      gs pp_body body
  | Loop l ->
    fprintf fmt "@[<v 2>do %s = %a, %a@,%a@]@,end do" l.var Expr.pp l.lo
      Expr.pp l.hi pp_body l.body

and pp_body fmt body =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp fmt body

let pp_program fmt prog =
  Format.fprintf fmt "@[<v>! %s (params: %s)@,%a%a@]" prog.p_name
    (String.concat ", " prog.params)
    (fun fmt arrays ->
      List.iter
        (fun d ->
          Format.fprintf fmt "real %s(%a)@," d.a_name
            (Format.pp_print_list
               ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
               Expr.pp)
            d.extents)
        arrays)
    prog.arrays pp_body prog.body

let program_to_string prog = Format.asprintf "%a@." pp_program prog
