(* The one front door to the compiler: parse -> dependence analysis ->
   legality -> code generation -> execution/simulation.

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
      (* symbolic codegen per (naive, collapse, spec) — the once-per-spec
         derivation that specialization instantiates per size *)
  lock : Mutex.t;
}

let create ?solver prog =
  let solver =
    match solver with Some c -> c | None -> Omega.Ctx.create ~cache:true ()
  in
  { prog; solver; deps = None; gen_cache = []; lock = Mutex.create () }

let parse ?solver text =
  match Loopir.Parser.program text with
  | prog -> Ok (create ?solver prog)
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

let check t spec = Shackle.Legality.check_deps ~ctx:t.solver t.prog spec (deps t)

let is_legal t spec =
  Shackle.Legality.is_legal_deps ~ctx:t.solver t.prog spec (deps t)

let is_legal_deps t spec ~deps =
  Shackle.Legality.is_legal_deps ~ctx:t.solver t.prog spec deps

let probe t spec = Shackle.Legality.probe_deps ~ctx:t.solver t.prog spec (deps t)

let probe_deps t spec ~deps =
  Shackle.Legality.probe_deps ~ctx:t.solver t.prog spec deps

let choices t ~array = Shackle.Legality.enumerate_choices t.prog ~array

let codegen ?(naive = false) ?collapse ?stages t spec =
  if naive then Codegen.Naive.generate ?stages t.prog spec
  else Codegen.Tighten.generate ?collapse ?stages ~solver:t.solver t.prog spec

(* Spec.pp renders the blocking and every per-statement choice, so its
   output is a faithful structural key. *)
let spec_key ~naive ~collapse spec =
  Printf.sprintf "naive=%b collapse=%b %s" naive collapse
    (Format.asprintf "%a" Shackle.Spec.pp spec)

let codegen_cached ?(naive = false) ?(collapse = true) t spec =
  let key = spec_key ~naive ~collapse spec in
  match
    Mutex.protect t.lock (fun () -> List.assoc_opt key t.gen_cache)
  with
  | Some prog -> prog
  | None ->
    let prog = codegen ~naive ~collapse t spec in
    Mutex.protect t.lock (fun () ->
        if not (List.mem_assoc key t.gen_cache) then
          t.gen_cache <- (key, prog) :: t.gen_cache);
    prog

let variant ?collapse t = function
  | None -> t.prog
  | Some spec -> codegen ?collapse t spec

let specialize ?naive ?collapse ?spec t ~params =
  let symbolic =
    match spec with
    | None -> t.prog
    | Some spec -> codegen_cached ?naive ?collapse t spec
  in
  Loopir.Stages.specialize ~params symbolic

let record ?layouts ?chunk_words ?spec t ~params ~init =
  Machine.Model.record ?layouts ?chunk_words (variant t spec) ~params ~init

(* One execution yielding both the replayable recording and the final
   store — the sequential half of a par=seq equivalence check, where
   executing twice would double the cost of every oracle probe. *)
let record_full ?layouts ?chunk_words ?spec t ~params ~init =
  let r = Trace.create_recorder ?chunk_words () in
  let store, flops =
    Exec.Verify.run_program ?layouts ~sink:(Trace.Record r) (variant t spec)
      ~params ~init
  in
  ({ Machine.Model.rec_trace = Trace.finish r; rec_flops = flops }, store)

let consume = Machine.Model.consume

let simulate ?layouts ?spec t ~machine ~quality ~params ~init =
  Machine.Model.simulate ?layouts ~machine ~quality (variant t spec) ~params
    ~init

let run ?layouts ?sink ?spec t ~params ~init =
  Exec.Verify.run_program ?layouts ?sink (variant t spec) ~params ~init

let verify ?layouts ?spec t ~params ~init =
  Exec.Verify.max_diff ?layouts t.prog (variant t spec) ~params ~init
