module Ast = Loopir.Ast
module E = Loopir.Expr
module Spec = Shackle.Spec
module Blocking = Shackle.Blocking

let array_extents (prog : Ast.program) name =
  match List.find_opt (fun (d : Ast.array_decl) -> String.equal d.a_name name) prog.arrays with
  | Some d -> d.extents
  | None -> invalid_arg ("Codegen: unknown array " ^ name)

let coord_loop_ranges prog (spec : Spec.t) =
  let names = Spec.coord_names spec in
  let ranges =
    List.concat_map
      (fun (f : Spec.factor) ->
        Blocking.coord_ranges f.blocking
          ~extents:(array_extents prog f.blocking.Blocking.array))
      spec
  in
  List.map2 (fun n (lo, hi) -> (n, lo, hi)) names ranges

let all_vars prog =
  let vs = ref [] in
  List.iter
    (fun (ctx, _) -> vs := Ast.loop_vars ctx @ !vs)
    (Ast.statements prog);
  List.sort_uniq String.compare (prog.Ast.params @ !vs)

let generate prog spec =
  (match Spec.validate prog spec with
   | Ok () -> ()
   | Error e -> invalid_arg ("Codegen.Naive.generate: " ^ e));
  let coord_names = Spec.coord_names spec in
  let existing = all_vars prog in
  List.iter
    (fun n ->
      if List.mem n existing then
        invalid_arg ("Codegen.Naive.generate: name collision on " ^ n))
    coord_names;
  (* Guards for one statement: membership of each factor's chosen reference
     in the factor's current block. *)
  let guards_for (s : Ast.stmt) =
    let _, gs =
      List.fold_left
        (fun (offset, acc) (f : Spec.factor) ->
          let r = Spec.choice_for f s in
          let nb = Blocking.coords_dim f.blocking in
          let coords =
            List.init nb (fun i -> E.var (List.nth coord_names (offset + i)))
          in
          (offset + nb,
           acc @ Blocking.membership_guards f.blocking r.Loopir.Fexpr.idx ~coords))
        (0, []) spec
    in
    gs
  in
  let rec wrap node =
    match node with
    | Ast.Stmt s -> Ast.If (guards_for s, [ node ])
    | Ast.If (gs, body) -> Ast.If (gs, List.map wrap body)
    | Ast.Loop l -> Ast.Loop { l with body = List.map wrap l.body }
  in
  let inner = List.map wrap prog.body in
  let body =
    List.fold_right
      (fun (n, lo, hi) acc -> [ Ast.loop n lo hi acc ])
      (coord_loop_ranges prog spec) inner
  in
  let result = { prog with Ast.p_name = prog.p_name ^ "_naive_shackled"; body } in
  (* Figure-5 form stays structurally intact: the naive pipeline only folds
     constants. *)
  Loopir.Stages.run Loopir.Stages.naive_pipeline result
