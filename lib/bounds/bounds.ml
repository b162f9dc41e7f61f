module Ast = Loopir.Ast
module Dom = Loopir.Domain
module Expr = Loopir.Expr
module Fexpr = Loopir.Fexpr
module A = Polyhedra.Affine
module C = Polyhedra.Constr
module S = Polyhedra.System
module B = Bigint
module Q = Ratio
module Spec = Shackle.Spec
module Blocking = Shackle.Blocking

type level = {
  lv_name : string;
  lv_line : int;
  lv_capacity : int;
  lv_lines : int;
}

let levels_of ~line_elems caps =
  let _, levels =
    List.fold_left
      (fun (cum, acc) (name, cap) ->
        let cum = cum + cap in
        ( cum,
          { lv_name = name;
            lv_line = line_elems;
            lv_capacity = cum;
            lv_lines = cum / line_elems }
          :: acc ))
      (0, []) caps
  in
  List.rev levels

(* Integer division helpers for possibly-negative numerators (divisor
   always positive). *)
let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)
let cdiv a b = if a >= 0 then (a + b - 1) / b else -(-a / b)

(* Largest r >= 0 with r^q <= x. *)
let iroot x q =
  if q = 1 || B.compare x B.one <= 0 then (if B.sign x < 0 then B.zero else x)
  else begin
    let rec grow r = if B.compare (B.pow r q) x <= 0 then grow (B.mul r B.two) else r in
    let hi = grow B.two in
    (* invariant: lo^q <= x < hi^q *)
    let rec bs lo hi =
      if B.compare (B.sub hi lo) B.one <= 0 then lo
      else
        let mid = B.fdiv (B.add lo hi) B.two in
        if B.compare (B.pow mid q) x <= 0 then bs mid hi else bs lo mid
    in
    bs B.one hi
  end

module Lp = struct
  let dot a x =
    let acc = ref Q.zero in
    Array.iteri (fun i ai -> acc := Q.add !acc (Q.mul ai x.(i))) a;
    !acc

  (* Square rational system [m . x = b] by Gauss-Jordan; None if singular. *)
  let solve_square m b =
    let n = Array.length b in
    let a = Array.map Array.copy m and b = Array.copy b in
    let singular = ref false in
    (try
       for col = 0 to n - 1 do
         let piv = ref (-1) in
         for r = col to n - 1 do
           if !piv < 0 && not (Q.is_zero a.(r).(col)) then piv := r
         done;
         if !piv < 0 then begin
           singular := true;
           raise Exit
         end;
         if !piv <> col then begin
           let t = a.(col) in
           a.(col) <- a.(!piv);
           a.(!piv) <- t;
           let t = b.(col) in
           b.(col) <- b.(!piv);
           b.(!piv) <- t
         end;
         let inv = Q.inv a.(col).(col) in
         for r = 0 to n - 1 do
           if r <> col && not (Q.is_zero a.(r).(col)) then begin
             let f = Q.mul a.(r).(col) inv in
             for c = col to n - 1 do
               a.(r).(c) <- Q.sub a.(r).(c) (Q.mul f a.(col).(c))
             done;
             b.(r) <- Q.sub b.(r) (Q.mul f b.(col))
           end
         done
       done
     with Exit -> ());
    if !singular then None
    else Some (Array.init n (fun i -> Q.div b.(i) a.(i).(i)))

  let optimize ~maximize ~dim ~objective rows =
    let rows = Array.of_list rows in
    let n = Array.length rows in
    let feasible x =
      Array.for_all (fun (a, b) -> Q.compare (dot a x) b <= 0) rows
    in
    if dim = 0 then
      if feasible [||] then Some (Q.zero, [||]) else None
    else begin
      let best = ref None in
      let consider x =
        if feasible x then begin
          let v = dot objective x in
          match !best with
          | Some (bv, _) when (if maximize then Q.compare v bv <= 0
                               else Q.compare v bv >= 0) ->
            ()
          | _ -> best := Some (v, x)
        end
      in
      (* every dim-subset of rows, taken as an equality system *)
      let chosen = Array.make dim 0 in
      let rec pick k lo =
        if k = dim then begin
          let m = Array.map (fun i -> fst rows.(i)) chosen in
          let b = Array.map (fun i -> snd rows.(i)) chosen in
          match solve_square m b with
          | None -> ()
          | Some x -> consider x
        end
        else
          for i = lo to n - 1 do
            chosen.(k) <- i;
            pick (k + 1) (i + 1)
          done
      in
      if n >= dim then pick 0 0;
      !best
    end
end

(* ------------------------------------------------------------------ *)
(* Integer point counting over param-substituted constraint rows.      *)
(* ------------------------------------------------------------------ *)

(* One constraint over the loop variables only: [rcs . x + rc0 {>=,=} 0]. *)
type row = { req : bool; rcs : int array; rc0 : int }

(* Convert an affine form over (params ++ loops) into loop coefficients
   and a constant with the parameters substituted. *)
let subst_affine ~pc ~d ~pvals aff =
  let cs = Array.init d (fun i -> B.to_int_exn (A.coeff aff (pc + i))) in
  let c0 = ref (A.const_of aff) in
  for p = 0 to pc - 1 do
    c0 := B.add !c0 (B.mul_int (A.coeff aff p) pvals.(p))
  done;
  (cs, B.to_int_exn !c0)

let row_of_constr ~pc ~d ~pvals (c : C.t) =
  let cs, c0 = subst_affine ~pc ~d ~pvals c.C.aff in
  { req = (c.C.kind = C.Eq); rcs = cs; rc0 = c0 }

(* Exact count of integer points satisfying [rows], plus per-variable
   min/max over the satisfying set.  Variables are scanned outermost
   first; every constraint becomes decidable at its deepest variable
   (loop bounds and guards only reference enclosing variables, and
   window bands bind whatever their deepest subscript variable is). *)
let wstats ~d rows =
  let buckets = Array.make (max d 1) [] in
  let infeasible = ref false in
  List.iter
    (fun r ->
      let lvl = ref (-1) in
      for i = 0 to d - 1 do
        if r.rcs.(i) <> 0 then lvl := i
      done;
      if !lvl < 0 then begin
        if (r.req && r.rc0 <> 0) || ((not r.req) && r.rc0 < 0) then
          infeasible := true
      end
      else buckets.(!lvl) <- r :: buckets.(!lvl))
    rows;
  if !infeasible then None
  else if d = 0 then Some (1, [||], [||])
  else begin
    let env = Array.make d 0 in
    let mins = Array.make d max_int and maxs = Array.make d min_int in
    let count = ref 0 in
    let range i =
      let lo = ref min_int and hi = ref max_int in
      List.iter
        (fun r ->
          let k = r.rcs.(i) in
          let rest = ref r.rc0 in
          for j = 0 to i - 1 do
            if r.rcs.(j) <> 0 then rest := !rest + (r.rcs.(j) * env.(j))
          done;
          if r.req then
            (* k * x + rest = 0 *)
            if -(!rest) mod k <> 0 then begin
              lo := 1;
              hi := 0
            end
            else begin
              let v = -(!rest) / k in
              if v > !lo then lo := v;
              if v < !hi then hi := v
            end
          else if k > 0 then begin
            let b = cdiv (- !rest) k in
            if b > !lo then lo := b
          end
          else begin
            let b = fdiv !rest (-k) in
            if b < !hi then hi := b
          end)
        buckets.(i);
      if !lo = min_int || !hi = max_int then
        failwith "Bounds: unbounded loop variable";
      (!lo, !hi)
    in
    let rec go i =
      let lo, hi = range i in
      if lo <= hi then
        if i = d - 1 then begin
          count := !count + (hi - lo + 1);
          if lo < mins.(i) then mins.(i) <- lo;
          if hi > maxs.(i) then maxs.(i) <- hi;
          for j = 0 to d - 2 do
            if env.(j) < mins.(j) then mins.(j) <- env.(j);
            if env.(j) > maxs.(j) then maxs.(j) <- env.(j)
          done
        end
        else
          for v = lo to hi do
            env.(i) <- v;
            go (i + 1)
          done
    in
    go 0;
    if !count = 0 then None else Some (!count, mins, maxs)
  end

(* ------------------------------------------------------------------ *)
(* Per-statement analysis.                                             *)
(* ------------------------------------------------------------------ *)

type ref_info = {
  ri_array : string;
  ri_fiber : int list option;
      (* loop variables outside the support, when the support submatrix
         has full column rank (access injective on support coords);
         None when rank-deficient — such a ref gives no distinct-data
         bound *)
}

(* Membership band of one blocking plane through one statement's chosen
   reference: value [wcs . x + wc0] falls in [o + (z-1)w, o + zw - 1]
   when the point lies in block z of that plane. *)
type plane_band = { wcs : int array; wc0 : int; wb_width : int; wb_offset : int }

(* The spec-free analysis of one statement at one parameter binding. *)
type stmt_data = {
  sd_stmt : Ast.stmt;
  sd_space : Dom.space;
  sd_pvals : int array;  (* parameter values, in [sd_space]'s order *)
  sd_d : int;
  sd_rows : row list;
  (* instance count and per-variable min/max of [sd_rows]; None when empty *)
  sd_stats : (int * int array * int array) option;
  sd_refs : ref_info list;
  sd_count : int;
  sd_sigma : Q.t;
  (* HBL cover: total exponent on available data, plus (extent, exponent)
     factors for loops covered directly; None when no cover was found *)
  sd_cover : (Q.t * (int * Q.t) list) option;
}

type stmt_info = {
  si_label : string;
  si_depth : int;
  si_iterations : int;
  si_sigma : Q.t;
}

type prepared = {
  pr_prog : Ast.program;
  pr_pval : string -> int;
  pr_stmts : stmt_data list;  (* every statement, in program order *)
  pr_live : stmt_data list;  (* those with at least one instance *)
  pr_distinct : int;
}

type t = {
  an_prep : prepared;
  (* per block-coordinate prefix: distinct-data bound of each nonempty
     window (possibly truncated — a partial sum stays a lower bound) *)
  an_windows : int list list;
}

let q_one = Q.one

(* Fractional-cover LP for one statement: supports of the injective refs
   plus singleton "loop extent" covers.  Returns (sigma, cover). *)
let solve_cover ~d supports =
  if d = 0 then (Q.zero, Some (Q.zero, []))
  else begin
    let nj = List.length supports in
    (* primal: max sum x_i  s.t.  sum_{i in S_j} x_i <= 1, 0 <= x_i <= 1 *)
    let rows =
      List.map
        (fun s ->
          (Array.init d (fun i -> if List.mem i s then q_one else Q.zero), q_one))
        supports
      @ List.init d (fun i ->
            (Array.init d (fun j -> if j = i then q_one else Q.zero), q_one))
      @ List.init d (fun i ->
            (Array.init d (fun j -> if j = i then Q.neg q_one else Q.zero), Q.zero))
    in
    let sigma =
      match
        Lp.optimize ~maximize:true ~dim:d ~objective:(Array.make d q_one) rows
      with
      | Some (v, _) -> v
      | None -> Q.of_int d
    in
    (* dual: min sum y + sum z  s.t.
       forall i: sum_{j : i in S_j} y_j + z_i >= 1, y >= 0, z >= 0 *)
    let du = nj + d in
    let cover_rows =
      List.init d (fun i ->
          let a = Array.make du Q.zero in
          List.iteri (fun j s -> if List.mem i s then a.(j) <- Q.neg q_one) supports;
          a.(nj + i) <- Q.neg q_one;
          (a, Q.neg q_one))
      @ List.init du (fun k ->
            (Array.init du (fun j -> if j = k then Q.neg q_one else Q.zero), Q.zero))
    in
    let cover =
      match
        Lp.optimize ~maximize:false ~dim:du ~objective:(Array.make du q_one)
          cover_rows
      with
      | None -> None
      | Some (_, u) ->
        let sum_y = ref Q.zero in
        for j = 0 to nj - 1 do
          sum_y := Q.add !sum_y u.(j)
        done;
        Some (!sum_y, List.init d (fun i -> u.(nj + i)))
    in
    (sigma, cover)
  end

let dedup_refs refs =
  List.fold_left
    (fun acc r -> if List.exists (Fexpr.ref_equal r) acc then acc else acc @ [ r ])
    [] refs

(* Distinct data touched by one region of each statement: per array the
   best single statement's bound, summed over arrays.  Each element of
   [regions] pairs a statement's references with the instance count and
   per-variable min/max of its region, or None when the region is empty. *)
let distinct_of regions =
  let per_array = Hashtbl.create 8 in
  List.iter
    (fun (refs, stats) ->
      match stats with
      | None -> ()
      | Some (cnt, mins, maxs) ->
        List.iter
          (fun ri ->
            match ri.ri_fiber with
            | None -> ()
            | Some fib ->
              let fiber =
                List.fold_left
                  (fun acc v -> acc * (maxs.(v) - mins.(v) + 1))
                  1 fib
              in
              let dlb = cdiv cnt fiber in
              let prev =
                Option.value (Hashtbl.find_opt per_array ri.ri_array) ~default:0
              in
              if dlb > prev then Hashtbl.replace per_array ri.ri_array dlb)
          refs)
    regions;
  Hashtbl.fold (fun _ v acc -> acc + v) per_array 0

let prepare ~params prog =
  let pval name =
    match List.assoc_opt name params with
    | Some v -> v
    | None -> failwith ("Bounds.analyze: missing parameter " ^ name)
  in
  let stmts =
    List.map
      (fun (ctx, (s : Ast.stmt)) ->
        let sp = Dom.space_of prog ctx in
        let pc = sp.Dom.param_count in
        let d = Dom.depth sp in
        let pvals = Array.init pc (fun i -> pval sp.Dom.names.(i)) in
        let rows =
          List.map (row_of_constr ~pc ~d ~pvals)
            (S.constraints (Dom.domain_of prog ctx))
        in
        let stats = wstats ~d rows in
        let count, extents =
          match stats with
          | None -> (0, Array.make d 0)
          | Some (n, mins, maxs) ->
            (n, Array.init d (fun i -> maxs.(i) - mins.(i) + 1))
        in
        (* each reference's loop support, and whether the access restricted
           to it has full column rank (is injective on the support) *)
        let refs =
          List.map
            (fun (r : Fexpr.ref_) ->
              let affs = Dom.access sp r in
              let supp =
                List.filter
                  (fun i ->
                    List.exists (fun a -> not (B.is_zero (A.coeff a (pc + i)))) affs)
                  (List.init d (fun i -> i))
              in
              let sub =
                Array.of_list
                  (List.map
                     (fun a -> Array.of_list (List.map (fun i -> A.coeff a (pc + i)) supp))
                     affs)
              in
              (r.Fexpr.array, supp, Linalg.Mat.rank sub = List.length supp))
            (dedup_refs (s.Ast.lhs :: Fexpr.reads s.Ast.rhs))
        in
        let ref_infos =
          List.map
            (fun (array, supp, injective) ->
              { ri_array = array;
                ri_fiber =
                  (if injective then
                     Some (List.filter (fun i -> not (List.mem i supp)) (List.init d (fun i -> i)))
                   else None) })
            refs
        in
        (* covering LP uses only injective refs with nonempty support *)
        let supports =
          List.filter_map
            (fun (_, supp, injective) ->
              if supp <> [] && injective then Some supp else None)
            refs
        in
        let sigma, raw_cover = solve_cover ~d supports in
        let cover =
          match raw_cover with
          | None -> None
          | Some (sum_y, zs) ->
            Some
              ( sum_y,
                List.mapi (fun i z -> (extents.(i), z)) zs
                |> List.filter (fun (_, z) -> Q.sign z > 0) )
        in
        { sd_stmt = s;
          sd_space = sp;
          sd_pvals = pvals;
          sd_d = d;
          sd_rows = rows;
          sd_stats = stats;
          sd_refs = ref_infos;
          sd_count = count;
          sd_sigma = sigma;
          sd_cover = cover })
      (Ast.statements prog)
  in
  let live = List.filter (fun sd -> sd.sd_count > 0) stmts in
  { pr_prog = prog;
    pr_pval = pval;
    pr_stmts = stmts;
    pr_live = live;
    pr_distinct =
      distinct_of (List.map (fun sd -> (sd.sd_refs, sd.sd_stats)) live) }

exception Drop_spec

(* Per factor of [spec], the plane bands of [sd]'s chosen reference.
   Raises [Drop_spec] when the factor chooses no reference of the
   statement or one of another rank than the factor's blocking. *)
let bands_of spec sd =
  let sp = sd.sd_space in
  let pc = sp.Dom.param_count and d = sd.sd_d in
  List.map
    (fun (f : Spec.factor) ->
      let r =
        try Spec.choice_for f sd.sd_stmt with Not_found -> raise Drop_spec
      in
      let point = Dom.access sp r in
      if List.length point <> f.Spec.blocking.Blocking.rank then
        raise Drop_spec;
      List.map
        (fun (p : Blocking.plane) ->
          let aff =
            List.fold_left2
              (fun acc n a -> A.add acc (A.scale_int n a))
              (A.zero (pc + d))
              p.Blocking.normal point
          in
          let cs, c0 = subst_affine ~pc ~d ~pvals:sd.sd_pvals aff in
          { wcs = cs;
            wc0 = c0;
            wb_width = p.Blocking.width;
            wb_offset = p.Blocking.offset })
        f.Spec.blocking.Blocking.planes)
    spec

let analyze_prepared ?spec p =
  let pval = p.pr_pval in
  let extents_of array =
    match List.find_opt (fun a -> String.equal a.Ast.a_name array) p.pr_prog.Ast.arrays with
    | None -> failwith ("Bounds.analyze: unknown array " ^ array)
    | Some a -> List.map (Expr.eval pval) a.Ast.extents
  in
  let factors = match spec with Some s -> s | None -> [] in
  let dropped = ref false in
  let bands =
    List.map
      (fun sd ->
        try bands_of factors sd
        with Drop_spec ->
          dropped := true;
          [])
      p.pr_stmts
  in
  let live =
    List.filter (fun (sd, _) -> sd.sd_count > 0) (List.combine p.pr_stmts bands)
  in
  let an_windows =
    match spec with
    | None -> []
    | Some _ when !dropped -> []
    | Some s ->
      (* coordinate ranges per factor plane, shared by all statements *)
      let ranges =
        List.map
          (fun (f : Spec.factor) ->
            let extents =
              List.map Expr.int (extents_of f.Spec.blocking.Blocking.array)
            in
            List.map
              (fun (lo, hi) -> (Expr.eval pval lo, Expr.eval pval hi))
              (Blocking.coord_ranges f.Spec.blocking ~extents))
          s
      in
      let nf = List.length s in
      let prefix_windows f =
        (* flat list of (lo, hi) over the first f factors' planes *)
        let flat = List.concat (List.filteri (fun i _ -> i < f) ranges) in
        let budget = ref 4096 in
        let dws = ref [] in
        let rec go zs = function
          | [] ->
            if !budget > 0 then begin
              decr budget;
              let zrev = Array.of_list (List.rev zs) in
              (* rows of each statement's window: two band rows per plane
                 of the first f factors *)
              let window (sd, bands) =
                let rows = ref sd.sd_rows in
                let k = ref 0 in
                List.iteri
                  (fun fi bands ->
                    if fi < f then
                      List.iter
                        (fun pb ->
                          let z = zrev.(!k) in
                          incr k;
                          let w = pb.wb_width and o = pb.wb_offset in
                          (* o + (z-1)w <= band <= o + zw - 1 *)
                          rows :=
                            { req = false;
                              rcs = pb.wcs;
                              rc0 = pb.wc0 - (o + ((z - 1) * w)) }
                            :: { req = false;
                                 rcs = Array.map (fun c -> -c) pb.wcs;
                                 rc0 = o + (z * w) - 1 - pb.wc0 }
                            :: !rows)
                        bands)
                  bands;
                (sd.sd_refs, wstats ~d:sd.sd_d !rows)
              in
              let dw = distinct_of (List.map window live) in
              if dw > 0 then dws := dw :: !dws
            end
          | (lo, hi) :: tl ->
            for z = lo to hi do
              if !budget > 0 then go (z :: zs) tl
            done
        in
        go [] flat;
        !dws
      in
      List.filter_map
        (fun f ->
          match prefix_windows f with [] -> None | dws -> Some dws)
        (List.init nf (fun i -> i + 1))
  in
  { an_prep = p; an_windows }

let analyze ?spec ~params prog = analyze_prepared ?spec (prepare ~params prog)

let stmts t =
  List.map
    (fun sd ->
      { si_label = sd.sd_stmt.Ast.label;
        si_depth = sd.sd_d;
        si_iterations = sd.sd_count;
        si_sigma = sd.sd_sigma })
    t.an_prep.pr_live

let distinct t = t.an_prep.pr_distinct

(* HBL phase bound for one statement at one level: phases of [lv_lines]
   misses see at most [avail = capacity + lines*line] elements, so at
   most [avail^sum_y * prod extents^z_i] instances execute per phase. *)
let hbl_stmt sd lv =
  match sd.sd_cover with
  | None -> 0
  | Some (sum_y, zs) ->
    if sd.sd_count = 0 || sd.sd_d = 0 then 0
    else begin
      let avail = lv.lv_capacity + (lv.lv_lines * lv.lv_line) in
      let q =
        List.fold_left
          (fun acc (_, z) -> B.to_int_exn (B.lcm (B.of_int acc) (Q.den z)))
          (B.to_int_exn (Q.den sum_y))
          zs
      in
      let ipow_q r =
        (* numerator of r * q, exact by construction *)
        B.to_int_exn (B.divexact (B.mul_int (Q.num r) q) (Q.den r))
      in
      let cap =
        List.fold_left
          (fun acc (ext, z) -> B.mul acc (B.pow (B.of_int (max ext 1)) (ipow_q z)))
          (B.pow (B.of_int avail) (ipow_q sum_y))
          zs
      in
      if B.is_zero cap then 0
      else begin
        let phases =
          iroot (B.fdiv (B.pow (B.of_int sd.sd_count) q) cap) q
        in
        match B.to_int_opt phases with
        | None -> max_int / 2
        | Some p -> max 0 (lv.lv_lines * (p - 1))
      end
    end

let compulsory t lv = cdiv t.an_prep.pr_distinct lv.lv_line

let windowed t lv =
  List.fold_left
    (fun best dws ->
      let sum =
        List.fold_left
          (fun acc dw -> acc + max 0 (cdiv dw lv.lv_line - lv.lv_lines))
          0 dws
      in
      max best sum)
    0 t.an_windows

let hbl t lv =
  List.fold_left (fun best sd -> max best (hbl_stmt sd lv)) 0 t.an_prep.pr_live

let misses t lv = max (compulsory t lv) (max (windowed t lv) (hbl t lv))

type level_bound = {
  lb_level : string;
  lb_compulsory : int;
  lb_windowed : int;
  lb_hbl : int;
  lb_misses : int;
}

let level_bounds t levels =
  List.map
    (fun lv ->
      let c = compulsory t lv and w = windowed t lv and h = hbl t lv in
      { lb_level = lv.lv_name;
        lb_compulsory = c;
        lb_windowed = w;
        lb_hbl = h;
        lb_misses = max c (max w h) })
    levels
