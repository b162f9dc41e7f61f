module Ast = Loopir.Ast
module E = Loopir.Expr
module Spec = Shackle.Spec
module Legality = Shackle.Legality
module Dep = Dependence.Dep
module A = Polyhedra.Affine
module C = Polyhedra.Constr
module S = Polyhedra.System
module Omega = Polyhedra.Omega
module Store = Exec.Store
module Interp = Exec.Interp
module Model = Machine.Model

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

type plan = {
  pl_prog : Ast.program;  (* the generated variant, untouched *)
  pl_task_prog : Ast.program;  (* residual body; band vars are params *)
  pl_band : string list;  (* peeled coordinate loop vars, outer first *)
  pl_params : (string * int) list;
  pl_coords : int array array;  (* per task, band-var values, lex order *)
  pl_levels : int array array;  (* longest-path layering, level -> task ids *)
  pl_edges : int;
  pl_serialized : bool;  (* conservative chain fallback engaged *)
}

let tasks plan = Array.length plan.pl_coords
let edges plan = plan.pl_edges
let levels plan = Array.map Array.to_list plan.pl_levels |> Array.to_list
let serialized plan = plan.pl_serialized

let max_width plan =
  Array.fold_left (fun m l -> max m (Array.length l)) 0 plan.pl_levels

(* The maximal outer band of perfectly nested block-coordinate loops.  The
   generated code puts the (possibly triangular, possibly collapsed)
   coordinate loops outermost; each instance of the band is one shackle
   block — the unit the scheduler moves around. *)
let peel_band coord_names (prog : Ast.program) =
  let rec go acc body =
    match body with
    | [ Ast.Loop l ] when List.mem l.var coord_names ->
      go ((l.var, l.lo, l.hi) :: acc) l.body
    | _ -> (List.rev acc, body)
  in
  go [] prog.body

exception Too_many

(* The largest task grid a plan enumerates, and the largest delta box
   it expands into edges; past either the plan degrades to a single task
   or the sequential chain. *)
let max_tasks = 2048
let max_box = 4096

(* All concrete band-coordinate tuples, in loop (= lexicographic) order.
   Triangular bounds are handled by evaluating each loop's bounds under
   the values of the outer ones. *)
let enumerate_tasks band ~params =
  let env : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace env k v) params;
  let lookup n =
    match Hashtbl.find_opt env n with
    | Some v -> v
    | None -> invalid_arg ("Sched: unbound variable " ^ n ^ " in band bounds")
  in
  let out = ref [] in
  let count = ref 0 in
  let nb = List.length band in
  let cur = Array.make nb 0 in
  let rec go i = function
    | [] ->
      incr count;
      if !count > max_tasks then raise Too_many;
      out := Array.copy cur :: !out
    | (var, lo, hi) :: rest ->
      let a = E.eval lookup lo and b = E.eval lookup hi in
      for v = a to b do
        cur.(i) <- v;
        Hashtbl.replace env var v;
        go (i + 1) rest
      done;
      Hashtbl.remove env var
  in
  go 0 band;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Dependence edges                                                    *)
(* ------------------------------------------------------------------ *)

(* Feasible range of [zd_k - zs_k] over one block-pair system, by binary
   search on solver queries.  Satisfiability of [delta >= c] is antitone
   in [c], so the maximum is found in O(log range) queries; [Unknown] is
   treated as satisfiable, which only widens the range — more edges, more
   ordering, never less. *)
let delta_range ctx base ~dim ~src ~dst ~lo ~hi =
  let delta = A.sub (A.var dim dst) (A.var dim src) in
  let sat_ge c =
    match Omega.decide ~ctx (S.add base (C.ge_of delta (A.of_int dim c))) with
    | Omega.Sat | Omega.Unknown _ -> true
    | Omega.Unsat -> false
  in
  let sat_le c =
    match Omega.decide ~ctx (S.add base (C.le_of delta (A.of_int dim c))) with
    | Omega.Sat | Omega.Unknown _ -> true
    | Omega.Unsat -> false
  in
  if not (sat_ge lo) || not (sat_le hi) then None
  else begin
    let dmax =
      if sat_ge hi then hi
      else begin
        (* invariant: sat_ge l, not (sat_ge h) *)
        let l = ref lo and h = ref hi in
        while !h - !l > 1 do
          let m = !l + ((!h - !l) / 2) in
          if sat_ge m then l := m else h := m
        done;
        !l
      end
    in
    let dmin =
      if sat_le lo then lo
      else begin
        let l = ref lo and h = ref hi in
        (* invariant: not (sat_le l), sat_le h *)
        while !h - !l > 1 do
          let m = !l + ((!h - !l) / 2) in
          if sat_le m then h := m else l := m
        done;
        !h
      end
    in
    Some (dmin, dmax)
  end

(* first nonzero coordinate decides *)
let lex_positive d =
  let rec go i =
    if i >= Array.length d then false
    else if d.(i) > 0 then true
    else if d.(i) < 0 then false
    else go (i + 1)
  in
  go 0

exception Serialize

(* Edges from the delta boxes of every (dependence, disjunct) pair.  The
   per-coordinate box is an over-approximation of the true delta set, so
   applying the full product only ever adds ordering: correctness never
   depends on the box being tight.  When the solver gives up or a box is
   too large to enumerate, the plan degenerates to the sequential chain —
   the always-correct fallback. *)
let build_edges pipe spec ~band_pos ~coords ~params =
  let prog = Pipeline.program pipe in
  let ctx = Pipeline.solver pipe in
  let n = Array.length coords in
  let nb = Array.length band_pos in
  let index = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i c -> Hashtbl.replace index (Array.to_list c) i)
    coords;
  (* in-grid delta bounds per band position *)
  let rmin = Array.make nb max_int and rmax = Array.make nb min_int in
  Array.iter
    (fun c ->
      Array.iteri
        (fun j v ->
          rmin.(j) <- min rmin.(j) v;
          rmax.(j) <- max rmax.(j) v)
        c)
    coords;
  let edge_set = Hashtbl.create (4 * n) in
  let add_edge a b =
    if not (Hashtbl.mem edge_set (a, b)) then Hashtbl.replace edge_set (a, b) ()
  in
  let attempts = ref 0 in
  (try
     List.iter
       (fun dep ->
         List.iter
           (fun (ps : Legality.pair_system) ->
             let dim = S.dim ps.Legality.ps_system in
             (* fix the program parameters to their concrete values *)
             let base =
               S.add_list ps.Legality.ps_system
                 (List.filter_map
                    (fun (name, idx) ->
                      match List.assoc_opt name params with
                      | Some v -> Some (C.eq_of (A.var dim idx) (A.of_int dim v))
                      | None -> None)
                    ps.Legality.ps_params)
             in
             match Omega.decide ~ctx base with
             | Omega.Unsat -> ()
             | Omega.Unknown _ -> raise Serialize
             | Omega.Sat ->
               let boxes =
                 Array.to_list
                   (Array.mapi
                      (fun j k ->
                        delta_range ctx base ~dim
                          ~src:(ps.Legality.ps_src_base + k)
                          ~dst:(ps.Legality.ps_dst_base + k)
                          ~lo:(rmin.(j) - rmax.(j))
                          ~hi:(rmax.(j) - rmin.(j)))
                      band_pos)
               in
               if List.for_all Option.is_some boxes then begin
                 let boxes = List.map Option.get boxes in
                 let size =
                   List.fold_left
                     (fun acc (lo, hi) -> acc * (hi - lo + 1))
                     1 boxes
                 in
                 if size > max_box then raise Serialize;
                 (* enumerate the box product once, apply to every task *)
                 let deltas = ref [] in
                 let d = Array.make nb 0 in
                 let rec gen j = function
                   | [] -> if lex_positive d then deltas := Array.copy d :: !deltas
                   | (lo, hi) :: rest ->
                     for v = lo to hi do
                       d.(j) <- v;
                       gen (j + 1) rest
                     done
                 in
                 gen 0 boxes;
                 List.iter
                   (fun delta ->
                     Array.iteri
                       (fun a c ->
                         incr attempts;
                         if !attempts > 4_000_000 then raise Serialize;
                         let target =
                           List.init nb (fun j -> c.(j) + delta.(j))
                         in
                         match Hashtbl.find_opt index target with
                         | Some b -> add_edge a b
                         | None -> ())
                       coords)
                   !deltas
               end
               (* a coordinate with no in-grid delta: no in-grid pairs *))
           (Legality.block_pair_systems prog spec dep))
       (Pipeline.deps pipe);
     (Hashtbl.fold (fun (a, b) () acc -> (a, b) :: acc) edge_set [], false)
   with Serialize ->
     (* the sequential chain: always correct, no parallelism *)
     (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)), true))

(* ------------------------------------------------------------------ *)
(* Layering                                                            *)
(* ------------------------------------------------------------------ *)

(* Longest-path layering.  Edges always point forward in task order
   (lexicographically later blocks), so one pass in id order suffices, and
   every edge runs from a lower level to a higher one: running the levels
   in order, each level's tasks in any order, respects the whole DAG. *)
let layer ~n edge_list =
  let succs = Array.make n [] in
  List.iter (fun (a, b) -> succs.(a) <- b :: succs.(a)) edge_list;
  let level = Array.make n 0 in
  let maxlvl = ref 0 in
  for a = 0 to n - 1 do
    List.iter
      (fun b -> if level.(a) + 1 > level.(b) then level.(b) <- level.(a) + 1)
      succs.(a);
    if level.(a) > !maxlvl then maxlvl := level.(a)
  done;
  let buckets = Array.make (!maxlvl + 1) [] in
  for i = n - 1 downto 0 do
    buckets.(level.(i)) <- i :: buckets.(level.(i))
  done;
  Array.map Array.of_list buckets

let single_task_plan prog ~params =
  { pl_prog = prog;
    pl_task_prog = prog;
    pl_band = [];
    pl_params = params;
    pl_coords = [| [||] |];
    pl_levels = [| [| 0 |] |];
    pl_edges = 0;
    pl_serialized = false }

let plan pipe ~spec ~params =
  let prog = Pipeline.variant pipe spec in
  match spec with
  | None -> single_task_plan prog ~params
  | Some spec ->
    let coord_names = Spec.coord_names spec in
    let band, residual = peel_band coord_names prog in
    if band = [] then single_task_plan prog ~params
    else begin
      match enumerate_tasks band ~params with
      | exception Too_many -> single_task_plan prog ~params
      | coords ->
        let n = Array.length coords in
        if n <= 1 then single_task_plan prog ~params
        else begin
          let band_vars = List.map (fun (v, _, _) -> v) band in
          let task_prog =
            { prog with
              Ast.params = prog.Ast.params @ band_vars;
              Ast.body = residual }
          in
          (* band var -> position in the spec's full coordinate list *)
          let band_pos =
            Array.of_list
              (List.map
                 (fun v ->
                   let rec find i = function
                     | [] ->
                       invalid_arg ("Sched: " ^ v ^ " not a coordinate")
                     | c :: _ when String.equal c v -> i
                     | _ :: tl -> find (i + 1) tl
                   in
                   find 0 coord_names)
                 band_vars)
          in
          let edge_list, ser =
            build_edges pipe spec ~band_pos ~coords ~params
          in
          { pl_prog = prog;
            pl_task_prog = task_prog;
            pl_band = band_vars;
            pl_params = params;
            pl_coords = coords;
            pl_levels = layer ~n edge_list;
            pl_edges = List.length edge_list;
            pl_serialized = ser }
        end
    end

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type result = {
  x_store : Store.t;
  x_recording : Model.recording;  (* deterministic merge, task order *)
  x_parts : Trace.t array;  (* per-task traces *)
  x_task_flops : int array;
  x_domains : int;  (* workers that ran the levels *)
  x_stalls : int;  (* barrier waits: dynamic, vary run to run *)
}

(* Per-worker execution state: each worker compiles the task body twice
   against the shared store, once on the value path, which computes the
   elements, and once on the address-only path, which appends each access
   to the worker's one recorder.  [Trace.finish] seals a task's trace and
   leaves the recorder holding no chunk for the next task. *)
type worker_ctx = {
  w_values : Interp.prepared;
  w_addresses : Interp.prepared;
  w_recorder : Trace.recorder;
}

let make_worker ~task_chunk store task_prog =
  let recorder = Trace.create_recorder ~chunk_words:task_chunk () in
  { w_values = Interp.prepare store task_prog;
    w_addresses = Interp.prepare_addresses store recorder task_prog;
    w_recorder = recorder }

let run_task plan wctx parts task_flops t =
  let bindings =
    plan.pl_params
    @ List.map2
        (fun v j -> (v, j))
        plan.pl_band
        (Array.to_list plan.pl_coords.(t))
  in
  task_flops.(t) <- Interp.invoke wctx.w_values ~params:bindings;
  ignore (Interp.invoke wctx.w_addresses ~params:bindings);
  parts.(t) <- Trace.finish wctx.w_recorder

(* Level-synchronous execution: the levels run in order, separated by a
   barrier, and a level's tasks are handed out by an atomic index to
   whichever worker asks next.  Worker 0 is the calling domain, so [domains = 1]
   spawns nothing; more workers than the widest level could only wait.
   Per-level counters are never reset, so a stale level read can only
   yield an index past the level's width — harmless. *)
let exec ?layouts ?(domains = 1) ?(chunk_words = Trace.default_chunk_words)
    plan ~init =
  let store =
    Store.create ?layouts plan.pl_prog ~params:plan.pl_params ~init
  in
  let n = tasks plan in
  let task_chunk = min chunk_words 1024 in
  let empty = Trace.finish (Trace.create_recorder ~chunk_words:1 ()) in
  let parts = Array.make n empty in
  let task_flops = Array.make n 0 in
  let p = max 1 (min domains (max_width plan)) in
  let stalls = Array.make p 0 in
  let failure = ref None in
  let failure_lock = Mutex.create () in
  let abort = Atomic.make false in
  let fail e bt =
    Mutex.protect failure_lock (fun () ->
        if !failure = None then failure := Some (e, bt));
    Atomic.set abort true
  in
  let nlvl = Array.length plan.pl_levels in
  let next = Array.init nlvl (fun _ -> Atomic.make 0) in
  let finished = Array.init nlvl (fun _ -> Atomic.make 0) in
  let cur = Atomic.make 0 in
  let worker w () =
    let wctx = make_worker ~task_chunk store plan.pl_task_prog in
    let rec loop () =
      let l = Atomic.get cur in
      if l < nlvl && not (Atomic.get abort) then begin
        let width = Array.length plan.pl_levels.(l) in
        let i = Atomic.fetch_and_add next.(l) 1 in
        if i < width then begin
          (try
             run_task plan wctx parts task_flops plan.pl_levels.(l).(i)
           with e -> fail e (Printexc.get_raw_backtrace ()));
          if Atomic.fetch_and_add finished.(l) 1 = width - 1 then
            (* last task of the level opens the next one *)
            Atomic.incr cur
        end
        else begin
          (* level drained but not finished: wait at the barrier *)
          stalls.(w) <- stalls.(w) + 1;
          Domain.cpu_relax ()
        end;
        loop ()
      end
    in
    loop ()
  in
  let spawned = List.init (p - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  List.iter Domain.join spawned;
  (match !failure with
   | Some (e, bt) -> Printexc.raise_with_backtrace e bt
   | None -> ());
  let merged = Trace.concat ~chunk_words (Array.to_list parts) in
  { x_store = store;
    x_recording =
      Model.recording merged ~flops:(Array.fold_left ( + ) 0 task_flops);
    x_parts = parts;
    x_task_flops = task_flops;
    x_domains = p;
    x_stalls = Array.fold_left ( + ) 0 stalls }

let smp ~cores plan r =
  Model.Smp.consume ~machine:Model.two_level ~quality:Model.tuned ~cores
    ~groups:(levels plan)
    ~parts:r.x_parts ~task_flops:r.x_task_flops
