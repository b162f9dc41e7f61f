type env = (string * int) list

let lookup env name =
  match List.assoc_opt name env with
  | Some v -> v
  | None -> invalid_arg ("Walk.lookup: unbound variable " ^ name)

let iter_instances (prog : Ast.program) ~params ~f =
  let rec go env node =
    let get name = lookup env name in
    match node with
    | Ast.Stmt s -> f s env
    | Ast.If (gs, body) ->
      if List.for_all (Ast.eval_guard get) gs then List.iter (go env) body
    | Ast.Loop l ->
      let lo = Expr.eval get l.lo and hi = Expr.eval get l.hi in
      for v = lo to hi do
        List.iter (go ((l.var, v) :: env)) l.body
      done
  in
  List.iter (go params) prog.body

let instances prog ~params =
  let acc = ref [] in
  iter_instances prog ~params ~f:(fun s env -> acc := (s, env) :: !acc);
  List.rev !acc
