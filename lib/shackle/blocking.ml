module E = Loopir.Expr
module Ast = Loopir.Ast
module A = Polyhedra.Affine
module C = Polyhedra.Constr
module B = Bigint

type plane = { normal : int list; width : int; offset : int }

type t = { array : string; rank : int; planes : plane list }

let make ~array ~rank planes =
  List.iter
    (fun p ->
      if p.width <= 0 then invalid_arg "Blocking.make: width must be positive";
      if List.length p.normal <> rank then
        invalid_arg "Blocking.make: normal has wrong arity";
      if List.for_all (fun c -> c = 0) p.normal then
        invalid_arg "Blocking.make: zero normal")
    planes;
  { array; rank; planes }

let coords_dim b = List.length b.planes

let unit_normal rank i = List.init rank (fun j -> if i = j then 1 else 0)

let blocks_2d ~array ~size =
  make ~array ~rank:2
    [ { normal = unit_normal 2 0; width = size; offset = 1 };
      { normal = unit_normal 2 1; width = size; offset = 1 } ]

let blocks_2d_colmajor ~array ~size =
  make ~array ~rank:2
    [ { normal = unit_normal 2 1; width = size; offset = 1 };
      { normal = unit_normal 2 0; width = size; offset = 1 } ]

let by_columns ~array ~width =
  make ~array ~rank:2 [ { normal = unit_normal 2 1; width; offset = 1 } ]

let storage_order ~array ~rank order =
  let dims =
    match order with
    | `Col_major -> List.rev (List.init rank Fun.id)  (* last subscript outermost *)
    | `Row_major -> List.init rank Fun.id
  in
  make ~array ~rank
    (List.map (fun i -> { normal = unit_normal rank i; width = 1; offset = 1 }) dims)

let dot_expr normal point =
  let terms =
    List.filter_map
      (fun (c, e) -> if c = 0 then None else Some (E.Mul (c, e)))
      (List.combine normal point)
  in
  match terms with
  | [] -> E.Const 0
  | hd :: tl -> List.fold_left (fun a t -> E.Add (a, t)) hd tl

let coord_exprs b point =
  if List.length point <> b.rank then
    invalid_arg "Blocking.coord_exprs: wrong point arity";
  List.map
    (fun p ->
      E.simplify
        (E.Add (E.FloorDiv (E.Sub (dot_expr p.normal point, E.Const p.offset), p.width),
                E.Const 1)))
    b.planes

let coord_of_point b point =
  let exprs = coord_exprs b (List.map E.int (Array.to_list point)) in
  Array.of_list (List.map (E.eval (fun _ -> assert false)) exprs)

let membership_guards b point ~coords =
  if List.length coords <> coords_dim b then
    invalid_arg "Blocking.membership_guards: wrong coords arity";
  List.concat
  @@ List.map2
    (fun p z ->
      let v = E.simplify (dot_expr p.normal point) in
      let hi_off = p.offset - 1 in
      let lo =
        E.simplify (E.Add (E.Const p.offset, E.Mul (p.width, E.Sub (z, E.Const 1))))
      in
      let hi = E.simplify (E.Add (E.Const hi_off, E.Mul (p.width, z))) in
      [ Ast.guard v Ast.Ge lo; Ast.guard v Ast.Le hi ])
    b.planes coords

let membership_constraints b ~point ~coord_vars =
  if List.length point <> b.rank then
    invalid_arg "Blocking.membership_constraints: wrong point arity";
  if List.length coord_vars <> coords_dim b then
    invalid_arg "Blocking.membership_constraints: wrong coords arity";
  let dim = A.dim (List.hd point) in
  List.concat
  @@ List.map2
    (fun p zi ->
      let z = A.var dim zi in
      let v =
        List.fold_left2
          (fun acc c e -> A.add acc (A.scale_int c e))
          (A.zero dim) p.normal point
      in
      (* o + (z-1)w <= v <= o + z*w - 1 *)
      let lo = A.add_const (A.scale_int p.width z) (B.of_int (p.offset - p.width)) in
      let hi = A.add_const (A.scale_int p.width z) (B.of_int (p.offset - 1)) in
      [ C.ge_of v lo; C.le_of v hi ])
    b.planes coord_vars

let range_constraints b ~extent_affs ~coord_vars =
  if List.length extent_affs <> b.rank then
    invalid_arg "Blocking.range_constraints: wrong extent arity";
  if List.length coord_vars <> coords_dim b then
    invalid_arg "Blocking.range_constraints: wrong coords arity";
  let dim = A.dim (List.hd extent_affs) in
  List.concat
  @@ List.map2
       (fun p zi ->
         let z = A.var dim zi in
         (* interval of n.a over the data space prod [1..e_i] *)
         let mini, maxi =
           List.fold_left2
             (fun (mn, mx) c e ->
               if c = 0 then (mn, mx)
               else if c > 0 then
                 (A.add_const mn (B.of_int c), A.add (A.scale_int c e) mx)
               else (A.add (A.scale_int c e) mn, A.add_const mx (B.of_int c)))
             (A.zero dim, A.zero dim) p.normal extent_affs
         in
         (* the block intersects the data range:
            o + w*z - 1 >= min  and  o + w*(z-1) <= max *)
         [ C.ge_of
             (A.add_const (A.scale_int p.width z) (B.of_int (p.offset - 1)))
             mini;
           C.le_of
             (A.add_const (A.scale_int p.width z)
                (B.of_int (p.offset - p.width)))
             maxi ])
       b.planes coord_vars

let coord_ranges b ~extents =
  if List.length extents <> b.rank then
    invalid_arg "Blocking.coord_ranges: wrong extent arity";
  List.map
    (fun p ->
      (* n.a over a in prod [1..e_i]: min/max per component sign *)
      let mini, maxi =
        List.fold_left2
          (fun (mn, mx) c e ->
            if c = 0 then (mn, mx)
            else if c > 0 then
              (E.Add (mn, E.Const c), E.Add (mx, E.Mul (c, e)))
            else (E.Add (mn, E.Mul (c, e)), E.Add (mx, E.Const c)))
          (E.Const 0, E.Const 0) p.normal extents
      in
      let z_of v =
        E.simplify
          (E.Add (E.FloorDiv (E.Sub (v, E.Const p.offset), p.width), E.Const 1))
      in
      (z_of mini, z_of maxi))
    b.planes

let pp fmt b =
  Format.fprintf fmt "@[<v>blocking of %s (rank %d):@,%a@]" b.array b.rank
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun fmt p ->
         Format.fprintf fmt "  normal [%s], width %d, offset %d"
           (String.concat "; " (List.map string_of_int p.normal))
           p.width p.offset))
    b.planes
