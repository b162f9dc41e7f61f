module Ast = Loopir.Ast
module E = Loopir.Expr

type layout =
  | Col_major
  | Row_major
  | Banded of int

type arr = {
  name : string;
  extents : int array;
  layout : layout;
  strides : int array;
  data : float array;
  base : int;
}

type t = { tbl : (string, arr) Hashtbl.t; order : string list }

let size_of extents layout =
  match layout with
  | Col_major | Row_major -> Array.fold_left ( * ) 1 extents
  | Banded bw ->
    if Array.length extents <> 2 then
      invalid_arg "Store: banded layout needs a rank-2 array";
    (bw + 1) * extents.(1)

(* Every layout is linear in the 1-based indices: the band's
   (i - j) + (j - 1) * (bw + 1) is (i - 1) + (j - 1) * bw. *)
let strides_of extents layout =
  let rank = Array.length extents in
  match layout with
  | Banded bw -> [| 1; bw |]
  | Col_major ->
    let s = Array.make rank 1 in
    for d = 1 to rank - 1 do
      s.(d) <- s.(d - 1) * extents.(d - 1)
    done;
    s
  | Row_major ->
    let s = Array.make rank 1 in
    for d = rank - 2 downto 0 do
      s.(d) <- s.(d + 1) * extents.(d + 1)
    done;
    s

let offset arr idx =
  let rank = Array.length arr.extents in
  if Array.length idx <> rank then
    invalid_arg ("Store.offset: arity mismatch on " ^ arr.name);
  (match arr.layout with
   | Banded bw ->
     let i = idx.(0) and j = idx.(1) in
     if i - j < 0 || i - j > bw || j < 1 || j > arr.extents.(1) then
       invalid_arg
         (Printf.sprintf "Store.offset: %s(%d,%d) outside band %d" arr.name i
            j bw)
   | Col_major | Row_major -> ());
  let off = ref 0 in
  for d = 0 to rank - 1 do
    let i = idx.(d) in
    if i < 1 || i > arr.extents.(d) then
      invalid_arg
        (Printf.sprintf "Store.offset: %s index %d out of [1..%d]" arr.name i
           arr.extents.(d));
    off := !off + ((i - 1) * arr.strides.(d))
  done;
  !off

(* The layout half of [create]: extents, bases and strides, and no data. *)
let plan ?(layouts = []) (prog : Ast.program) ~params =
  let env name =
    match List.assoc_opt name params with
    | Some v -> v
    | None -> invalid_arg ("Store.plan: unbound parameter " ^ name)
  in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (d : Ast.array_decl) -> d.a_name = name) prog.arrays)
      then invalid_arg ("Store.plan: layout for undeclared array " ^ name))
    layouts;
  let tbl = Hashtbl.create 8 in
  let base = ref 0 in
  let order = ref [] in
  List.iter
    (fun (d : Ast.array_decl) ->
      let extents =
        Array.of_list (List.map (fun e -> E.eval env e) d.extents)
      in
      let layout =
        Option.value ~default:Col_major (List.assoc_opt d.a_name layouts)
      in
      let arr =
        { name = d.a_name;
          extents;
          layout;
          strides = strides_of extents layout;
          data = [||];
          base = !base }
      in
      base := !base + size_of extents layout;
      order := d.a_name :: !order;
      Hashtbl.add tbl d.a_name arr)
    prog.arrays;
  { tbl; order = List.rev !order }

(* Fill one planned array through [init], in its layout, so banded stores
   only hold the band. *)
let fill init (a : arr) =
  let extents = a.extents in
  let arr = { a with data = Array.make (size_of extents a.layout) 0.0 } in
  let data = arr.data in
  (match arr.layout with
   | Banded bw ->
     for j = 1 to extents.(1) do
       for i = j to min extents.(0) (j + bw) do
         data.(offset arr [| i; j |]) <- init arr.name [| i; j |]
       done
     done
   | Col_major | Row_major ->
     let rec go idx d' =
       if d' < 0 then data.(offset arr idx) <- init arr.name idx
       else
         for v = 1 to extents.(d') do
           idx.(d') <- v;
           go idx (d' - 1)
         done
     in
     if Array.length extents = 0 then ()
     else go (Array.make (Array.length extents) 1) (Array.length extents - 1));
  arr

let create ?layouts prog ~params ~init =
  let t = plan ?layouts prog ~params in
  let tbl = Hashtbl.create 8 in
  List.iter (fun name -> Hashtbl.add tbl name (fill init (Hashtbl.find t.tbl name))) t.order;
  { t with tbl }

let find t name =
  match Hashtbl.find_opt t.tbl name with
  | Some a -> a
  | None -> invalid_arg ("Store.find: unknown array " ^ name)

let get t name idx =
  let a = find t name in
  a.data.(offset a idx)

let arrays t = List.map (fun n -> find t n) t.order

let max_abs_diff a b =
  List.fold_left2
    (fun acc (x : arr) (y : arr) ->
      if Array.length x.data <> Array.length y.data then
        invalid_arg "Store.max_abs_diff: shape mismatch";
      let m = ref acc in
      Array.iteri
        (fun i v ->
          let d = Float.abs (v -. y.data.(i)) in
          if d > !m then m := d)
        x.data;
      !m)
    0.0 (arrays a) (arrays b)
