(* The one front door to the compiler: parse -> dependence analysis ->
   legality -> code generation -> execution/recording.

   A [t] pairs a program with a solver context ([Omega.Ctx]) and a cached
   dependence analysis.  Everything downstream threads that one context, so
   (a) all Omega traffic for the program is visible in one place, and (b)
   when the context carries a memo table, legality queries across many
   candidate shackles share it — which is exactly the autotuner's workload
   (products reuse their factors' systems). *)

module Ast = Loopir.Ast
module Dep = Dependence.Dep
module Omega = Polyhedra.Omega

type t = {
  prog : Ast.program;
  solver : Omega.Ctx.t;
  mutable deps : Dep.t list option;
  mutable gen_cache : (string * Ast.program) list;
      (* symbolic tightened codegen per spec — the once-per-spec
         derivation that specialization instantiates per size *)
  lock : Mutex.t;
}

let create ?solver prog =
  let solver =
    match solver with Some c -> c | None -> Omega.Ctx.create ~cache:true ()
  in
  { prog; solver; deps = None; gen_cache = []; lock = Mutex.create () }

(* The parser accepts what the code generator prints, and some of that
   (a [max] in an upper bound) falls outside the class [Domain] analyzes:
   every statement's domain and subscripts are built once here, so such a
   program is an [Error] naming the expression, not a raise in [deps]. *)
let analyzable prog =
  let module Dom = Loopir.Domain in
  List.iter
    (fun (ctx, (s : Ast.stmt)) ->
      ignore (Dom.domain_of prog ctx);
      let sp = Dom.space_of prog ctx in
      List.iter
        (fun r -> ignore (Dom.access sp r))
        (s.lhs :: Loopir.Fexpr.reads s.rhs))
    (Ast.statements prog)

let parse ?solver text =
  match Loopir.Parser.program text with
  | prog -> (
    match analyzable prog with
    | () -> Ok (create ?solver prog)
    | exception Loopir.Domain.Not_affine e ->
      Error (Printf.sprintf "not analyzable: %s is not affine" e))
  | exception Loopir.Parser.Parse_error (line, msg) ->
    Error (Printf.sprintf "line %d: %s" line msg)

let program t = t.prog
let solver t = t.solver

let deps t =
  Mutex.protect t.lock (fun () ->
      match t.deps with
      | Some ds -> ds
      | None ->
        let ds = Dep.analyze ~ctx:t.solver t.prog in
        t.deps <- Some ds;
        ds)

let deps_at t ~params = Dep.analyze ~params ~ctx:t.solver t.prog

let probe_deps t spec ~deps =
  Shackle.Legality.probe_deps ~ctx:t.solver t.prog spec deps

let probe t spec = probe_deps t spec ~deps:(deps t)
let is_legal t spec = Shackle.Verdict.is_legal (probe t spec)

let choices t ~array = Shackle.Legality.enumerate_choices t.prog ~array

let codegen ?(naive = false) t spec =
  if naive then Codegen.Naive.generate t.prog spec
  else Codegen.Tighten.generate ~solver:t.solver t.prog spec

(* Spec.pp renders the blocking and every per-statement choice, so its
   output is a faithful structural key. *)
let codegen_cached t spec =
  let key = Format.asprintf "%a" Shackle.Spec.pp spec in
  match
    Mutex.protect t.lock (fun () -> List.assoc_opt key t.gen_cache)
  with
  | Some prog -> prog
  | None ->
    let prog = codegen t spec in
    Mutex.protect t.lock (fun () ->
        if not (List.mem_assoc key t.gen_cache) then
          t.gen_cache <- (key, prog) :: t.gen_cache);
    prog

let variant t = function
  | None -> t.prog
  | Some spec -> codegen_cached t spec

let specialize ?spec t ~params =
  let symbolic =
    match spec with
    | None -> t.prog
    | Some spec -> codegen_cached t spec
  in
  Loopir.Stages.specialize ~params symbolic

let record t ~params ~init = Machine.Model.record t.prog ~params ~init

let consume = Machine.Model.consume

let run t ~params ~init = Exec.Verify.run_program t.prog ~params ~init

let verify ?spec t ~params ~init =
  Exec.Verify.max_diff t.prog (variant t spec) ~params ~init
