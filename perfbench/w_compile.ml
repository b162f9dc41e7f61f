(* compile: one seeded (kernel, shackle, block size) per op, compiled from
   the kernel's source text on a fresh pipeline — a cold solver, as in one
   shacklec invocation.  parse -> deps -> probe, and for a legal shackle
   codegen and specialization at one N.  The Omega solver over Bigint does
   nearly all the work; nothing is recorded or simulated. *)

module Spec = Shackle.Spec
module Blocking = Shackle.Blocking
module Ctx = Polyhedra.Omega.Ctx

type entry = {
  label : string;
  kernel : string;
  spec : int -> Spec.t;  (** at a block size *)
}

let sizes = [| 8; 16; 32 |]
let spec_n = 48

(* Brute force decides legality by enumerating instance pairs, so it runs
   at a block size and N small enough to be exhaustive but large enough
   for every violation of these kernels to show. *)
let brute_size = 2
let brute_n = 7

let registry =
  [ ("matmul", [ "c"; "ca"; "two-level" ]);
    ("cholesky_right", [ "write"; "read"; "full"; "left" ]);
    ("cholesky_left", [ "write"; "full" ]);
    ("cholesky_banded", [ "write" ]);
    ("gmtry", [ "write" ]);
    ("adi", [ "fused" ]);
    ("qr", [ "columns" ]) ]

(* Kernels whose single-factor choices (Pipeline.choices over the arrays
   every statement references) join the mix; several are illegal and stop
   at the first proved violation. *)
let choice_kernels =
  [ "matmul"; "syrk"; "cholesky_right"; "cholesky_left"; "cholesky_banded";
    "gmtry"; "adi"; "trisolve_backward" ]

let deck () =
  let named =
    List.concat_map
      (fun (kernel, names) ->
        List.map
          (fun name ->
            { label = Printf.sprintf "%s/%s" kernel name;
              kernel;
              spec = (fun size -> Bench.lookup ~kernel ~spec:name ~size) })
          names)
      registry
  in
  let choices =
    List.concat_map
      (fun kernel ->
        let prog = Bench.kernel kernel in
        let p = Pipeline.create prog in
        List.concat_map
          (fun array ->
            List.mapi
              (fun i choice ->
                { label = Printf.sprintf "%s/%s#%d" kernel array i;
                  kernel;
                  spec =
                    (fun size ->
                      [ Spec.factor (Blocking.blocks_2d ~array ~size) choice ]) })
              (Pipeline.choices p ~array))
          (Shackle.Search.default_arrays prog))
      choice_kernels
  in
  Array.of_list (named @ choices)

type setup = { entries : entry array; texts : (string * string) list }

(* Kernel construction: the registry's programs, their source text, and
   the deck. *)
let setup () =
  let texts =
    List.map
      (fun (k, p) -> (k, Loopir.Ast.program_to_string p))
      (Bench.kernels ())
  in
  { entries = deck (); texts }

type out = {
  verdict : string;
  deps : int;
  queries : int;
  fuel : int;
  generated : Loopir.Ast.program option;
}

let solver_counters t () =
  let c = Pipeline.solver t in
  [ ("queries", float_of_int (Ctx.queries c));
    ("fuel", float_of_int (Ctx.fuel_spent c));
    ("splinters", float_of_int (Ctx.splinters c));
    ("memo_hits", float_of_int (Ctx.cache_hits c)) ]

let compile ?rec_ ~op st (e, size) =
  let span name ?counters f = Span.maybe rec_ ~name ~op ?counters f in
  span "op" (fun () ->
      let text = List.assoc e.kernel st.texts in
      let t =
        span "parse"
          ~counters:(fun () -> [])
          (fun () ->
            match Pipeline.parse text with
            | Ok t -> t
            | Error msg -> failwith ("parse: " ^ msg))
      in
      let counters = solver_counters t in
      let deps = span "dependence" ~counters (fun () -> Pipeline.deps t) in
      let spec = e.spec size in
      let v = span "legality" ~counters (fun () -> Pipeline.probe t spec) in
      let generated =
        match v with
        | Shackle.Verdict.Legal ->
          let g =
            span "codegen" ~counters (fun () -> Pipeline.codegen_cached t spec)
          in
          ignore
            (span "specialize" (fun () ->
                 Pipeline.specialize ~spec t
                   ~params:(Bench.params ~kernel:e.kernel ~n:spec_n)));
          Some g
        | _ -> None
      in
      let c = Pipeline.solver t in
      { verdict = Shackle.Verdict.to_string v;
        deps = List.length deps;
        queries = Ctx.queries c;
        fuel = Ctx.fuel_spent c;
        generated })

let deal ~seed st index =
  Deck.pass ~seed ~index
    ~vary:(fun r e -> (e, sizes.(Fuzzing.Rng.int r (Array.length sizes))))
    st.entries

let row o =
  [ ("verdict", o.verdict);
    ("deps", Expected.int o.deps);
    ("queries", Expected.int o.queries);
    ("fuel", Expected.int o.fuel) ]

let variant_key e size = Printf.sprintf "%s@%d" e.label size

let out_bytes g = String.length (Loopir.Ast.program_to_string g)

(* Checks made once per distinct deck entry / generated variant, after the
   timed region: the table's verdict against brute force at small N, and
   every generated program against the original by execution. *)
let cross_check tbl st variants =
  let brute e =
    let prog = Bench.kernel e.kernel in
    let legal =
      Fuzzing.Brute.legal prog (e.spec brute_size)
        ~params:(Bench.params ~kernel:e.kernel ~n:brute_n)
    in
    let want = if legal then "legal" else "illegal" in
    match Hashtbl.find_opt tbl e.label with
    | Some row when List.assoc_opt "verdict" row = Some want -> None
    | _ -> Some (Printf.sprintf "compile %s: brute force says %s" e.label want)
  in
  let variant ((e, size), g) =
    let prog = Bench.kernel e.kernel in
    let n = size + 3 in
    let ok =
      Exec.Verify.equivalent prog g
        ~params:(Bench.params ~kernel:e.kernel ~n)
        ~init:(Bench.init ~kernel:e.kernel ~n)
    in
    if not ok then
      Some (Printf.sprintf "compile %s: generated code differs from the original" (variant_key e size))
    else
      Expected.diff tbl ~what:"compile" ~key:(variant_key e size)
        [ ("out_bytes", Expected.int (out_bytes g)) ]
  in
  List.filter_map brute (Array.to_list st.entries)
  @ List.filter_map variant variants

let layers ~spans ~(region : Bench.region) ~deps ~out_bytes =
  let tbl = Span.by_name spans in
  let ops = float_of_int (List.length region.samples) in
  let sum = Layers.sum tbl and per_call = Layers.per_call tbl in
  let all key = sum "dependence" key +. sum "legality" key +. sum "codegen" key in
  let legality = float_of_int (Layers.calls tbl "legality") in
  let codegen = float_of_int (Layers.calls tbl "codegen") in
  [ ("parse.self_s", per_call "parse");
    ("dependence.self_s", per_call "dependence");
    ("dependence.deps", deps /. ops);
    ("dependence.omega_queries", sum "dependence" "queries" /. ops);
    ("legality.self_s", per_call "legality");
    ("legality.illegal_frac", Layers.ratio (legality -. codegen) legality);
    ("omega.queries", all "queries" /. ops);
    ("omega.fuel", all "fuel" /. ops);
    ("omega.splinters", all "splinters" /. ops);
    ("omega.memo_hit_frac", Layers.ratio (all "memo_hits") (all "queries"));
    ("codegen.self_s", per_call "codegen");
    ("codegen.omega_queries", sum "codegen" "queries" /. ops);
    ("codegen.out_bytes", Layers.ratio out_bytes codegen);
    ("specialize.self_s", per_call "specialize") ]
  @ Layers.gc region

let run ~seed ~seconds ~trace =
  let tbl = Expected.load "compile" in
  let setup_s, st = Bench.setup_reps setup in
  let variants = Hashtbl.create 64 in
  (* traced-run sums of counters that are outputs, not boundary readings *)
  let deps = ref 0.0 and out_bytes = ref 0.0 in
  let check (e, size) o =
    deps := !deps +. float_of_int o.deps;
    (match o.generated with
    | Some g ->
      Hashtbl.replace variants (e.label, size) (e, g);
      (match Hashtbl.find_opt tbl (variant_key e size) with
      | Some row ->
        out_bytes :=
          !out_bytes +. float_of_string (Option.value (List.assoc_opt "out_bytes" row) ~default:"0")
      | None -> ())
    | None -> ());
    Expected.check tbl ~what:"compile" ~key:e.label (row o)
  in
  let region ?rec_ seconds =
    Bench.run_passes ~seconds ~deal:(deal ~seed st)
      ~op:(fun ~pass ~index d -> compile ?rec_ ~op:((pass * 1000) + index) st d)
      ~check ()
  in
  let untraced = region (if trace then seconds /. 2.0 else seconds) in
  let traced =
    if trace then begin
      let r = Span.recorder () in
      deps := 0.0;
      out_bytes := 0.0;
      let reg = region ~rec_:r (seconds /. 2.0) in
      Some (Span.spans r, reg)
    end
    else None
  in
  let peak_rss_mb = Bench.peak_rss_mb () in
  let checks =
    cross_check tbl st
      (Hashtbl.fold (fun (_, size) (e, g) acc -> ((e, size), g) :: acc) variants []
      |> List.sort (fun ((a, s), _) ((b, t), _) -> compare (a.label, s) (b.label, t)))
  in
  let parse_bytes =
    let total =
      Array.fold_left
        (fun acc e -> acc + String.length (List.assoc e.kernel st.texts))
        0 st.entries
    in
    float_of_int total /. float_of_int (Array.length st.entries)
  in
  let layers, spans =
    match traced with
    | None -> ([], [])
    | Some (spans, reg) ->
      ( ("parse.bytes", parse_bytes)
        :: layers ~spans ~region:reg ~deps:!deps ~out_bytes:!out_bytes,
        spans )
  in
  { Bench.setup_s;
    region = untraced;
    traced = Option.map snd traced;
    peak_rss_mb;
    checks;
    evidence = [];
    layers;
    spans }

let regen () =
  let st = setup () in
  let rows = ref [] in
  Array.iter
    (fun e ->
      let outs = Array.map (fun size -> (size, compile ~op:0 st (e, size))) sizes in
      let _, o0 = outs.(0) in
      Array.iter
        (fun (size, o) ->
          if row o <> row o0 then
            failwith (Printf.sprintf "compile %s: counters depend on the block size (%d)" e.label size);
          match o.generated with
          | Some g -> rows := (variant_key e size, [ ("out_bytes", Expected.int (out_bytes g)) ]) :: !rows
          | None -> ())
        outs;
      rows := (e.label, row o0) :: !rows)
    st.entries;
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) !rows;
  (match cross_check tbl st [] with
  | [] -> ()
  | errs -> failwith (String.concat "\n" errs));
  Expected.save "compile"
    ~header:
      [ "compile: per deck entry, the verdict and the work counters of one op";
        "(dependences, Omega queries and fuel on a fresh solver; equal at every";
        "block size), and per generated variant the rendered program's length.";
        "Verdicts agree with Fuzzing.Brute.legal at block size 2, N=7." ]
    (List.sort compare !rows)
