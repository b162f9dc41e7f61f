module B = Bigint

(* ------------------------------------------------------------------ *)
(* Verdicts and budgets                                                 *)
(* ------------------------------------------------------------------ *)

type verdict = Sat | Unsat | Unknown of string

(* ------------------------------------------------------------------ *)
(* Solver contexts                                                     *)
(* ------------------------------------------------------------------ *)

(* An external verdict store behind the in-process memo: the disk-backed
   legality cache of the shackled daemon plugs in here.  Keys are system
   digests, so an entry written by one process answers another process's
   query.  Only exact verdicts may be stored — the same
   soundness rule as the memo table. *)
type backing = {
  bk_find : string -> bool option;
  bk_store : string -> bool -> unit;
}

(* Per-context solver state: query/splinter/budget counters plus an
   optional memo table over canonicalized systems.  Counters are atomic and
   the table is mutex-protected because legality checks fan out over
   domains.  Every query is charged to a context its caller created, so
   each pipeline, autotuner run, daemon and test sees only its own
   statistics.  The budget is fixed when the context is created. *)
module Ctx = struct
  type t = {
    queries : int Atomic.t;
    splinters : int Atomic.t;
    hits : int Atomic.t;
    misses : int Atomic.t;
    fuel_spent : int Atomic.t;
    unknowns : int Atomic.t;
    backing_hits : int Atomic.t;
    backing : backing option; (* external verdict store (disk cache) *)
    fuel : int option; (* per-query work-unit cap *)
    timeout_ms : int option; (* per-query wall-clock deadline *)
    starve_after : int option; (* fault injection: zero fuel from this
                                  query index on *)
    table : (string, bool) Hashtbl.t option; (* keyed by [digest] *)
    lock : Mutex.t;
  }

  let create ?(cache = false) ?backing ?fuel ?timeout_ms ?starve_after () =
    { queries = Atomic.make 0;
      splinters = Atomic.make 0;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      fuel_spent = Atomic.make 0;
      unknowns = Atomic.make 0;
      backing_hits = Atomic.make 0;
      backing;
      fuel;
      timeout_ms;
      starve_after;
      table = (if cache then Some (Hashtbl.create 1024) else None);
      lock = Mutex.create () }

  let queries t = Atomic.get t.queries
  let splinters t = Atomic.get t.splinters
  let fuel_spent t = Atomic.get t.fuel_spent
  let unknowns t = Atomic.get t.unknowns
  let cache_hits t = Atomic.get t.hits
  let cache_misses t = Atomic.get t.misses
  let backing_hits t = Atomic.get t.backing_hits
  let cache_enabled t = t.table <> None

  let cache_size t =
    match t.table with
    | None -> 0
    | Some h -> Mutex.protect t.lock (fun () -> Hashtbl.length h)
end

(* The per-query budget threaded through the recursion.  [remaining =
   max_int] means unlimited fuel; the deadline is an absolute wall-clock
   time ([infinity] when none).  The deadline is only polled every 64
   charged units: a gettimeofday per work unit would dominate the cheap
   eliminations, and 64 units bound the overshoot to well under a
   millisecond. *)
type budget = {
  mutable remaining : int;
  mutable spent : int;
  deadline : float;
  mutable tick : int;
}

exception Give_up of string

let charge b cost =
  b.spent <- b.spent + cost;
  if b.remaining <> max_int then begin
    b.remaining <- b.remaining - cost;
    if b.remaining < 0 then raise (Give_up "fuel")
  end;
  b.tick <- b.tick + cost;
  if b.tick >= 64 then begin
    b.tick <- 0;
    if b.deadline < infinity && Unix.gettimeofday () > b.deadline then
      raise (Give_up "deadline")
  end

(* ------------------------------------------------------------------ *)
(* Helpers over constraints                                            *)
(* ------------------------------------------------------------------ *)

(* mod-hat of Pugh's equality reduction: the representative of [a] modulo
   [m] lying in [-m/2, m/2).  For [m = |ak| + 1] this maps [ak] to -sign(ak),
   giving a unit coefficient to solve for. *)
let mod_hat a m =
  let r = B.frem a m in
  if B.compare (B.mul B.two r) m >= 0 then B.sub r m else r

(* Solve [c.aff = 0] for variable [k] whose coefficient is +-1 and return
   the replacement form for x_k. *)
let solve_for aff k =
  let u = Affine.coeff aff k in
  assert (B.equal (B.abs u) B.one);
  let rest = Affine.set_coeff aff k B.zero in
  (* u*x + rest = 0  =>  x = -rest/u = -u*rest (u = +-1) *)
  Affine.scale (B.neg u) rest

(* A lower bound keeps the rest of its row, [r = c - b*x], rather than
   [l = -r], so that each bound costs one copy of the row. *)
type split = {
  lowers : (B.t * Affine.t) list; (* (b, r): b*x + r >= 0, b > 0 *)
  uppers : (B.t * Affine.t) list; (* (a, u): a*x <= u, a > 0 *)
  rest : Constr.t list;
}

let split_on cs k =
  let lowers = ref [] and uppers = ref [] and rest = ref [] in
  List.iter
    (fun (c : Constr.t) ->
      let ck = Affine.coeff c.aff k in
      let sign = B.sign ck in
      if sign = 0 then rest := c :: !rest
      else begin
        assert (c.kind = Constr.Ge);
        let form = Affine.set_coeff c.aff k B.zero in
        if sign > 0 then lowers := (ck, form) :: !lowers
        else uppers := (B.neg ck, form) :: !uppers
      end)
    cs;
  { lowers = !lowers; uppers = !uppers; rest = !rest }

(* ------------------------------------------------------------------ *)
(* The solver                                                          *)
(* ------------------------------------------------------------------ *)

exception Unsat_exn

(* One constraint normalized as [Constr.normalize] does, from its content
   [g] computed once: [g = 0] is a constant row, true or false; an
   equality whose [g] does not divide its constant has no integer
   solution, and [Constr.normalize] leaves it as written; every other row
   is divided by [g], with its constant floored for an inequality. *)
type row = True_row | False_row | Row of Constr.t

let normalize_row (c : Constr.t) =
  let g = Affine.content c.aff and k = Affine.const_of c.aff in
  if g == B.zero then begin
    let holds =
      match c.kind with Constr.Eq -> B.is_zero k | Constr.Ge -> B.sign k >= 0
    in
    if holds then True_row else False_row
  end
  else if g == B.of_small 1 then Row c
  else
    match c.kind with
    | Constr.Eq ->
      if B.is_zero (B.frem k g) then Row (Constr.eq (Affine.divexact c.aff g))
      else False_row
    | Constr.Ge -> Row (Constr.ge (Affine.div_floor c.aff g))

(* Normalize a list of Ge/Eq constraints; raises Unsat_exn on a contradiction
   that is visible syntactically, returns (eqs, ges) with trivial
   constraints dropped, integer tightening applied to inequalities, and
   parallel inequalities collapsed to the strongest one.  The compression
   is essential: Fourier-Motzkin elimination inside the solver produces
   many parallel combinations, and without it the constraint count explodes
   on deep systems (e.g. multi-level blocking legality). *)
let normalize_split cs =
  let eqs = ref [] and ges = ref [] in
  List.iter
    (fun c ->
      match normalize_row c with
      | True_row -> ()
      | False_row -> raise Unsat_exn
      | Row r -> (
        match r.kind with
        | Constr.Eq -> eqs := r :: !eqs
        | Constr.Ge -> ges := r :: !ges))
    cs;
  (List.rev !eqs, Constr.dedupe (List.rev !ges))

(* A query's constraints normalized once, for both the memo key and the
   solver's first level: [rows] holds every row as [Constr.normalize]
   leaves it, in input order; [eqs] and [ges] are the non-constant rows
   that [normalize_split] would keep, before the dedupe; [refuted] is set
   when some row is false on its face, where [normalize_split] would
   raise. *)
type prepared = {
  rows : Constr.t list;
  refuted : bool;
  eqs : Constr.t list;
  ges : Constr.t list;
}

let prepare cs =
  let rows = ref [] and eqs = ref [] and ges = ref [] and refuted = ref false in
  List.iter
    (fun (c : Constr.t) ->
      match normalize_row c with
      | True_row -> rows := c :: !rows
      | False_row ->
        refuted := true;
        rows := c :: !rows
      | Row r ->
        rows := r :: !rows;
        (match r.kind with
        | Constr.Eq -> eqs := r :: !eqs
        | Constr.Ge -> ges := r :: !ges))
    cs;
  { rows = List.rev !rows;
    refuted = !refuted;
    eqs = List.rev !eqs;
    ges = List.rev !ges }

(* Integer bound propagation: a cheap refutation pre-pass run before the
   expensive eliminations.  Each inequality [sum aj*xj + c >= 0] tightens
   the interval of any variable whose co-variables are already bounded on
   the relevant side ([ak*xk >= -c - sum_{j<>k} aj*xj], with integer
   rounding of the division by [ak]); equalities propagate both ways.  An
   interval that empties proves unsatisfiability; anything else is
   inconclusive and falls through to the full solver.  Sound because every
   integer solution satisfies every propagated bound.  This closes quickly
   over the near-pinned systems that fixed-parameter legality queries
   produce, where pure Fourier-Motzkin recursion is at its worst.

   A call sweeps the forms until no bound moves, an interval empties, or
   [max_sweeps] sweeps have run, charging one fuel unit per sweep.  Each
   level of the native twin below runs it as [sweep], on native ints: the
   level's [scan] lays the forms out as flat arrays (per term its variable
   index and coefficient, per form its constant and first term), and each
   bound is an [int] with a presence flag.  Every input value and every
   bound must lie in [-native_bound, native_bound] (2^30), so a product of
   a coefficient and a bound stays within 2^60; a partial sum must stay
   within 2^61, so adding the next product cannot overflow.  Any value
   outside those ranges raises [Out_of_range], which abandons the whole
   query; it runs again on the [Bigint] recursion with its budget
   restored, and there each level runs [exact_intervals], the same loop
   over [Bigint].  The twin charges a level's sweeps once they have run,
   one unit at a time, so the fuel, the point where a budget gives up and
   the verdict are those of [exact_intervals] on every system.

   Many calls creep: a lower bound rises by a unit or so per sweep, no
   interval can empty, and the loop runs all [max_sweeps] sweeps for
   nothing (d >= s + 1 and s = d raise s and d by one each sweep).  The
   native loop proves that outcome early and returns it, charging the same
   [max_sweeps] units.  Whether a term can move a bound (its co-terms are
   bounded on the sides it reads) depends only on which bounds are present,
   and presence only grows.  So after a sweep that moved a bound but gave
   no variable its first bound on either side, every later sweep sees the
   same active terms, and presence is final.  If then no variable has both
   bounds, no interval can ever empty.  It remains to show that no later
   sweep leaves every bound unchanged, so the loop would run to
   [max_sweeps]; a bound leaving the native range on the way only hands the
   query to the [Bigint] recursion, whose [exact_intervals] runs the same
   sweeps and so also charges [max_sweeps] without refuting.
   The witness is a cycle of lower-bound raises.  From the variable whose
   lower bound moved last, step to a co-term of the term that last raised
   it, one that reads a lower bound (negative coefficient), choosing the
   one whose bound moved last; every variable has one successor, so [dim]
   steps land on a cycle.  Relax each raise on the cycle to
   [a*v_out >= K + m*v_in], where [-m] is [v_in]'s coefficient and [K]
   holds the form's other co-terms at their current bounds, and compose
   the raises (dividing by gcds, in checked arithmetic) into
   [D*v >= A*v + B] for the cycle's first variable.  Bounds only tighten,
   and a raise only grows as its co-terms' bounds tighten, so a sweep that
   moved nothing would leave every raise on the cycle below its bound, and
   the current lower bound [L] of [v], or any later one [L' >= L], would
   satisfy [D*L' >= A*L' + B].  That is impossible when [A >= D] and
   [(A - D)*L + B > 0].  A cycle that fails this test, or overflows, proves
   nothing, and the sweeps go on. *)
let max_sweeps = 16
let native_bound = 1 lsl 30
let sum_bound = 1 lsl 61

exception Out_of_range
exception Uncertified

let in_range v = v >= -native_bound && v <= native_bound

let native_of x =
  if B.is_small x && in_range (B.to_small x) then B.to_small x
  else raise Out_of_range

(* Arithmetic for the certificate: operands and results stay in
   [-max_int, max_int], or the certificate is given up. *)
let checked_add a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 || s = min_int then raise Uncertified;
  s

let checked_mul a b =
  let p = a * b in
  if
    (abs a < 0x8000_0000 && abs b < 0x8000_0000)
    || a = 0
    || (p / a = b && p <> min_int)
  then p
  else raise Uncertified

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* The pre-pass's working arrays: the forms laid out flat (per form its
   constant and first term, per term its variable index and coefficient,
   with [first.(nforms)] past the last term), the bounds with their
   presence flags, and for each lower bound the form that last raised it
   and when, counted in lower-bound moves.  The arrays may be longer than
   a call needs: the native twin below reuses one layout per domain.
   [run] holds the sweeps the last [sweep] ran. *)
type layout = {
  first : int array;
  const : int array;
  var : int array;
  coef : int array;
  lo : int array;
  hi : int array;
  has_lo : bool array;
  has_hi : bool array;
  lo_form : int array;
  lo_at : int array;
  mutable run : int;
}

let make_layout ~forms ~terms ~dim =
  { first = Array.make (forms + 1) 0;
    const = Array.make forms 0;
    var = Array.make terms 0;
    coef = Array.make terms 0;
    lo = Array.make dim 0;
    hi = Array.make dim 0;
    has_lo = Array.make dim false;
    has_hi = Array.make dim false;
    lo_form = Array.make dim 0;
    lo_at = Array.make dim 0;
    run = 0 }

(* The certificate above, after a sweep of [sweep] whose presence is
   final, from the layout of [dim] variables.  A top-level function, so
   that a call that never reaches it allocates nothing for it. *)
let creeps l dim =
  let first = l.first and var = l.var and coef = l.coef and const = l.const in
  let lo = l.lo and hi = l.hi and has_lo = l.has_lo and has_hi = l.has_hi in
  let lo_form = l.lo_form and lo_at = l.lo_at in
  (* the co-term of [v]'s last raise that reads a lower bound and moved
     last, as a term index *)
  let feeder v =
    if not has_lo.(v) then raise Uncertified;
    let f = lo_form.(v) and w = ref (-1) in
    for t = first.(f) to first.(f + 1) - 1 do
      if coef.(t) < 0 && (!w < 0 || lo_at.(var.(t)) > lo_at.(var.(!w))) then
        w := t
    done;
    if !w < 0 then raise Uncertified;
    !w
  in
  let two_sided = ref false in
  for v = 0 to dim - 1 do
    if has_lo.(v) && has_hi.(v) then two_sided := true
  done;
  (not !two_sided)
  &&
  match
    (* [dim] steps from the variable whose lower bound moved last *)
    let v = ref 0 in
    for j = 1 to dim - 1 do
      if lo_at.(j) > lo_at.(!v) then v := j
    done;
    for _ = 1 to dim do
      v := var.(feeder !v)
    done;
    let v0 = !v in
    (* [d*v0 >= a*v + b] for each [v] on the cycle in turn, back to [v0]:
       compose it with [v]'s raise relaxed to [av*v >= k + m*var.(u)] *)
    let a = ref 1 and b = ref 0 and d = ref 1 and continue = ref true in
    while !continue do
      let u = feeder !v and f = lo_form.(!v) in
      let av = ref 0 and k = ref (-const.(f)) in
      for t = first.(f) to first.(f + 1) - 1 do
        let j = var.(t) in
        if j = !v then av := coef.(t)
        else if t <> u then begin
          k := !k - (coef.(t) * if coef.(t) > 0 then hi.(j) else lo.(j));
          if !k > sum_bound || !k < -sum_bound then raise Uncertified
        end
      done;
      let a' = checked_mul !a (-coef.(u)) and d' = checked_mul !d !av in
      let b' = checked_add (checked_mul !a !k) (checked_mul !b !av) in
      let g = gcd_int (gcd_int a' d') (abs b') in
      a := a' / g;
      b := b' / g;
      d := d' / g;
      v := var.(u);
      continue := !v <> v0
    done;
    !a >= !d && checked_add (checked_mul (!a - !d) lo.(v0)) !b > 0
  with
  | holds -> holds
  | exception Uncertified -> false

(* The sweep loop over the first [nforms] forms of a layout on [dim]
   variables, every value within [native_bound]: the sweeps to charge,
   negated when an interval emptied.  [l.run] is set to the sweeps run. *)
let sweep l nforms dim =
  let first = l.first and var = l.var and coef = l.coef and const = l.const in
  let lo = l.lo and hi = l.hi and has_lo = l.has_lo and has_hi = l.has_hi in
  let lo_form = l.lo_form and lo_at = l.lo_at in
  for v = 0 to dim - 1 do
    has_lo.(v) <- false;
    has_hi.(v) <- false;
    lo_at.(v) <- 0
  done;
  let moves = ref 0 in
  let empty = ref false and changed = ref true and sweeps = ref 0 in
  let certified = ref false in
  while !changed && (not !empty) && (not !certified) && !sweeps < max_sweeps do
    changed := false;
    incr sweeps;
    let fresh = ref false in
    let f = ref 0 in
    while (not !empty) && !f < nforms do
      let t0 = first.(!f) and t1 = first.(!f + 1) in
      for t = t0 to t1 - 1 do
        (* the box maximum of the form without term [t], if bounded *)
        let sum = ref const.(!f) and bounded = ref true and u = ref t0 in
        while !bounded && !u < t1 do
          if !u <> t then begin
            let j = var.(!u) and a = coef.(!u) in
            if a > 0 then
              if has_hi.(j) then sum := !sum + (a * hi.(j)) else bounded := false
            else if has_lo.(j) then sum := !sum + (a * lo.(j))
            else bounded := false;
            if !sum > sum_bound || !sum < -sum_bound then raise Out_of_range
          end;
          incr u
        done;
        if !bounded then begin
          let rm = !sum and k = var.(t) and ak = coef.(t) in
          if ak > 0 then begin
            (* xk >= ceil(-rm / ak) *)
            let b =
              if ak = 1 then -rm
              else
                let q = -rm / ak in
                if (-rm) - (q * ak) > 0 then q + 1 else q
            in
            if not (in_range b) then raise Out_of_range;
            if (not has_lo.(k)) || lo.(k) < b then begin
              if not has_lo.(k) then fresh := true;
              lo.(k) <- b;
              has_lo.(k) <- true;
              incr moves;
              lo_form.(k) <- !f;
              lo_at.(k) <- !moves;
              changed := true;
              if has_hi.(k) && b > hi.(k) then empty := true
            end
          end
          else begin
            (* xk <= floor(rm / -ak) *)
            let b =
              if ak = -1 then rm
              else
                let q = rm / -ak in
                if rm - (q * -ak) < 0 then q - 1 else q
            in
            if not (in_range b) then raise Out_of_range;
            if (not has_hi.(k)) || hi.(k) > b then begin
              if not has_hi.(k) then fresh := true;
              hi.(k) <- b;
              has_hi.(k) <- true;
              changed := true;
              if has_lo.(k) && lo.(k) > b then empty := true
            end
          end
        end
      done;
      incr f
    done;
    if !changed && (not !empty) && (not !fresh) && !sweeps < max_sweeps then
      certified := creeps l dim
  done;
  l.run <- !sweeps;
  if !certified then max_sweeps else if !empty then - !sweeps else !sweeps

(* The sweep loop on a level of the [Bigint] recursion, charging each
   sweep as it starts: whether an interval emptied. *)
let exact_intervals bgt dim (eqs : Constr.t list) (ges : Constr.t list) =
  let lo = Array.make dim None and hi = Array.make dim None in
  let forms =
    List.concat_map
      (fun (c : Constr.t) ->
        match c.kind with
        | Constr.Ge -> [ c.aff ]
        | Constr.Eq -> [ c.aff; Affine.neg c.aff ])
      (eqs @ ges)
  in
  let forms = List.map (fun a -> (a, Affine.vars a)) forms in
  let empty = ref false in
  let changed = ref true in
  let sweeps = ref 0 in
  while !changed && (not !empty) && !sweeps < max_sweeps do
    changed := false;
    incr sweeps;
    charge bgt 1;
    List.iter
      (fun (aff, vars) ->
        if not !empty then
          List.iter
            (fun k ->
              (* [ak*xk >= -(c + sum_{j<>k} aj*xj)] holds for every solution,
                 so the box maximum of the rest gives a valid bound on xk *)
              let rest_max =
                List.fold_left
                  (fun acc j ->
                    if j = k then acc
                    else
                      match acc with
                      | None -> None
                      | Some sum ->
                        let aj = Affine.coeff aff j in
                        let bound = if B.sign aj > 0 then hi.(j) else lo.(j) in
                        (match bound with
                        | Some v -> Some (B.add sum (B.mul aj v))
                        | None -> None))
                  (Some (Affine.const_of aff))
                  vars
              in
              match rest_max with
              | None -> ()
              | Some rm ->
                let ak = Affine.coeff aff k in
                if B.sign ak > 0 then begin
                  (* xk >= ceil(-rm / ak) *)
                  let b = B.cdiv (B.neg rm) ak in
                  match lo.(k) with
                  | Some old when B.compare old b >= 0 -> ()
                  | _ ->
                    lo.(k) <- Some b;
                    changed := true;
                    (match hi.(k) with
                    | Some h when B.compare b h > 0 -> empty := true
                    | _ -> ())
                end
                else begin
                  (* xk <= floor(rm / -ak) *)
                  let b = B.fdiv rm (B.neg ak) in
                  match hi.(k) with
                  | Some old when B.compare old b <= 0 -> ()
                  | _ ->
                    hi.(k) <- Some b;
                    changed := true;
                    (match lo.(k) with
                    | Some l when B.compare l b > 0 -> empty := true
                    | _ -> ())
                end)
            vars)
      forms
  done;
  !empty

let rec solve ctx bgt dim (cs : Constr.t list) =
  charge bgt 1;
  match normalize_split cs with
  | exception Unsat_exn -> false
  | eqs, ges -> solve_split ctx bgt dim eqs ges

and solve_split ctx bgt dim eqs ges =
  if exact_intervals bgt dim eqs ges then false
  else begin
    match eqs with
    | [] -> solve_ineqs ctx bgt dim ges
    | eq :: other_eqs -> solve_eq ctx bgt dim eq (other_eqs @ ges)
  end

and solve_eq ctx bgt dim (eq : Constr.t) others =
  (* Prefer a variable with a unit coefficient. *)
  let unit_var =
    let coeffs = (eq.aff : Affine.t).coeffs in
    let rec find k =
      if k = Array.length coeffs then None
      else
        let c = coeffs.(k) in
        if B.is_small c && abs (B.to_small c) = 1 then Some k else find (k + 1)
    in
    find 0
  in
  match unit_var with
  | Some k ->
    let e = solve_for eq.aff k in
    solve ctx bgt dim (List.map (fun c -> Constr.subst c k e) others)
  | None ->
    (* Pugh's reduction: no unit coefficient; pick the variable with the
       smallest |coefficient|, introduce sigma with
       sum mod_hat(ai) xi + mod_hat(c) - m*sigma = 0,  m = |ak| + 1,
       in which x_k has coefficient -sign(ak); solve for x_k and
       substitute everywhere (including into [eq] itself). *)
    let k =
      List.fold_left
        (fun best k ->
          match best with
          | None -> Some k
          | Some b ->
            if
              B.compare
                (B.abs (Affine.coeff eq.aff k))
                (B.abs (Affine.coeff eq.aff b))
              < 0
            then Some k
            else best)
        None (Affine.vars eq.aff)
    in
    let k = Option.get k in
    let m = B.add (B.abs (Affine.coeff eq.aff k)) B.one in
    let sigma = dim in
    let dim' = dim + 1 in
    let eq' = Constr.extend eq dim' in
    let others' = List.map (fun c -> Constr.extend c dim') others in
    let reduced_coeffs =
      Array.init dim' (fun i ->
          if i = sigma then B.neg m
          else mod_hat (Affine.coeff eq'.aff i) m)
    in
    let reduced =
      Affine.make reduced_coeffs (mod_hat (Affine.const_of eq'.aff) m)
    in
    let e = solve_for reduced k in
    solve ctx bgt dim'
      (List.map (fun c -> Constr.subst c k e) (eq' :: others'))

and solve_ineqs ctx bgt dim ges =
  (* Choose the elimination variable: exact eliminations first, then the
     fewest pair combinations, then the lowest index.  One pass over the
     constraints counts each variable's lower and upper bounds and those
     whose coefficient is not +-1. *)
  let n_lo = Array.make dim 0 and n_up = Array.make dim 0 in
  let nonunit_lo = Array.make dim 0 and nonunit_up = Array.make dim 0 in
  List.iter
    (fun (c : Constr.t) ->
      let coeffs = (c.aff : Affine.t).coeffs in
      for k = 0 to dim - 1 do
        let ck = coeffs.(k) in
        (* a boxed coefficient counts by its sign, as a non-unit *)
        let v = if B.is_small ck then B.to_small ck else 2 * B.sign ck in
        if v > 0 then begin
          n_lo.(k) <- n_lo.(k) + 1;
          if v <> 1 then nonunit_lo.(k) <- nonunit_lo.(k) + 1
        end
        else if v < 0 then begin
          n_up.(k) <- n_up.(k) + 1;
          if v <> -1 then nonunit_up.(k) <- nonunit_up.(k) + 1
        end
      done)
    ges;
  let choice = ref (-1) and exact = ref false and cost = ref 0 in
  for k = 0 to dim - 1 do
    if n_lo.(k) + n_up.(k) > 0 then begin
      let e = nonunit_lo.(k) = 0 || nonunit_up.(k) = 0 in
      let c = n_lo.(k) * n_up.(k) in
      let better =
        if !choice < 0 then true else if e <> !exact then e else c < !cost
      in
      if better then begin
        choice := k;
        exact := e;
        cost := c
      end
    end
  done;
  if !choice < 0 then true (* non-trivial constant constraints were filtered *)
  else
    let k = !choice and exact = !exact and cost = !cost in
    let { lowers; uppers; rest } = split_on ges k in
    (* The FM elimination the solver drives is where the constraint count
       explodes, so fuel is charged proportionally to the pair combinations
       about to be generated. *)
    charge bgt (max 1 cost);
    let combine extra_slack =
      List.concat_map
        (fun (b, r) ->
          List.map
            (fun (a, u) ->
              (* b*x >= -r, a*x <= u => -a*r <= ab*x <= b*u *)
              let gap = Affine.combine b u (B.neg a) r in
              let slack = extra_slack a b in
              Constr.ge
                (if B.is_zero slack then gap
                 else Affine.add_const gap (B.neg slack)))
            uppers)
        lowers
    in
    let no_slack _ _ = B.zero in
    if exact then solve ctx bgt dim (combine no_slack @ rest)
    else begin
      let real = combine no_slack in
      if not (solve ctx bgt dim (real @ rest)) then false
      else begin
        let dark_slack a b = B.mul (B.pred a) (B.pred b) in
        if solve ctx bgt dim (combine dark_slack @ rest) then true
        else begin
          (* Splinter: any integer solution has some lower bound b*x >= -r
             with b*x <= -r + (b*amax - b - amax)/amax. *)
          let amax =
            List.fold_left (fun acc (a, _) -> B.max acc a) B.one uppers
          in
          List.exists
            (fun (b, r) ->
              let kmax =
                B.fdiv
                  (B.sub (B.mul b amax) (B.add b amax))
                  amax
              in
              let rec try_i i =
                if B.compare i kmax > 0 then false
                else begin
                  Atomic.incr ctx.Ctx.splinters;
                  charge bgt 1;
                  (* b*x + r - i = 0; [r] does not mention x *)
                  let eq =
                    Constr.eq
                      (Affine.add_const (Affine.set_coeff r k b) (B.neg i))
                  in
                  if solve ctx bgt dim (eq :: ges) then true
                  else try_i (B.succ i)
                end
              in
              try_i B.zero)
            lowers
        end
      end
    end

(* ------------------------------------------------------------------ *)
(* The native twin                                                     *)
(* ------------------------------------------------------------------ *)

(* The recursion above, step for step, on rows of native ints: the same
   normalization and dedupe, pre-pass, elimination variable, row orders,
   dark shadow, splinters and fuel charges.  A level's rows sit in one
   row-major matrix, equalities first, each row [dim + 1] words: its
   constant, then its coefficients.  Every stored value lies within
   [native_bound] (2^30), so a product of two stays within 2^60 and the
   sums the recursion forms (at most three products) cannot overflow; a
   result outside the range raises [Out_of_range], and the query runs
   again from its start on the [Bigint] recursion.  Where the twin
   finishes, every verdict, fuel unit, give-up point and splinter is the
   recursion's.

   The matrices live on a per-domain stack of words, [rows]: a level's
   caller allocates the level's matrix above [top], and the level owns it
   (it normalizes, dedupes and substitutes in place).  A level that runs a
   child and then reads its own rows again resets [top] to where it stood
   and re-reads [rows], which the child may have grown.  The pre-pass
   layout, the bound counts, and the dedupe's table ([slots], tagged with
   a fresh [stamp] per level so that it needs no clearing) and class
   hashes are per domain too, rebuilt by each level before its children
   run.  A query that finds the domain's scratch [busy] (another systhread
   of the domain solving) takes a fresh one. *)
type scratch = {
  mutable busy : bool;
  mutable rows : int array;
  mutable top : int;
  mutable splinters : int; (* the running query's, added to its context once *)
  mutable lay : layout; (* the pre-pass's arrays *)
  mutable counts : int array; (* per variable: lowers, uppers, non-unit of each *)
  mutable slots : int array; (* a power of two long *)
  mutable hashes : int array;
  mutable stamp : int;
  mutable eqs : int; (* the equalities [scan] kept *)
}

let scratch_words = 4096

let new_scratch () =
  { busy = false;
    rows = Array.make scratch_words 0;
    top = 0;
    splinters = 0;
    lay = make_layout ~forms:64 ~terms:512 ~dim:32;
    counts = Array.make 128 0;
    slots = Array.make 256 0;
    hashes = Array.make 64 0;
    stamp = 0;
    eqs = 0 }

let scratch_key = Domain.DLS.new_key new_scratch

let acquire () =
  let st = Domain.DLS.get scratch_key in
  if st.busy then new_scratch ()
  else begin
    st.busy <- true;
    st
  end

(* Arrays grown past a megaword by one query are not kept. *)
let release st =
  st.busy <- false;
  if
    Array.length st.rows > 1 lsl 20
    || Array.length st.lay.var > 1 lsl 20
    || Array.length st.slots > 1 lsl 20
  then begin
    let fresh = new_scratch () in
    st.rows <- fresh.rows;
    st.lay <- fresh.lay;
    st.counts <- fresh.counts;
    st.slots <- fresh.slots;
    st.hashes <- fresh.hashes
  end

let alloc st words =
  let base = st.top in
  let top = base + words in
  if top > Array.length st.rows then begin
    let rows = Array.make (max top (2 * Array.length st.rows)) 0 in
    Array.blit st.rows 0 rows 0 base;
    st.rows <- rows
  end;
  st.top <- top;
  base

let[@inline] fit v = if in_range v then v else raise Out_of_range

let mod_hat_int a m =
  let r = a mod m in
  let r = if r < 0 then r + m else r in
  if 2 * r >= m then r - m else r

let fdiv_int a d =
  let q = a / d in
  if a - (q * d) < 0 then q - 1 else q

(* Room in the per-domain arrays for a level of [n] rows, [neq] of them
   equalities, over [dim] variables; a row index must fit the 24 bits the
   dedupe's table tags it with. *)
let reserve st dim neq n =
  if n >= 1 lsl 24 then raise Out_of_range;
  let l = st.lay and forms = n + neq in
  if
    Array.length l.first <= forms
    || Array.length l.var < forms * dim
    || Array.length l.lo < dim
  then begin
    let forms = max forms (2 * Array.length l.const) in
    let dim = max dim (Array.length l.lo) in
    st.lay <- make_layout ~forms ~terms:(forms * dim) ~dim
  end;
  if Array.length st.counts < 4 * dim then st.counts <- Array.make (8 * dim) 0;
  if Array.length st.hashes < n then begin
    st.hashes <- Array.make (2 * n) 0;
    let size = ref (Array.length st.slots) in
    while !size < 4 * n do
      size := 2 * !size
    done;
    st.slots <- Array.make !size 0
  end

(* One pass over the [n] rows of a level at [base], the first [neq] of
   them equalities, that does four things [solve] does separately:
   [normalize_split] (each row divided by its content, with its constant
   floored for an inequality; a constant row dropped when it holds and
   refuting otherwise), [Constr.dedupe] on the inequalities (one row per
   coefficient vector, in first-seen order, keeping the smallest
   constant), the pre-pass layout of the kept rows (each equality and its
   negation, then each inequality, the order [exact_intervals] sweeps
   them in), and for each variable the counts of the inequalities that
   bound it from below and above, and of those with a non-unit
   coefficient, by which [solve_ineqs] chooses.  A row's nonzero terms
   are laid out as they are read, and taken back when the row is dropped
   or merged.  Kept rows are compacted in place.  The rows kept, with
   [st.eqs] set to the equalities among them, or -1 when a row is
   false. *)
let scan st dim base neq n =
  reserve st dim neq n;
  let w = dim + 1 and m = st.rows and l = st.lay in
  let first = l.first and const = l.const and var = l.var and coef = l.coef in
  let counts = st.counts and slots = st.slots and hashes = st.hashes in
  for x = 0 to (4 * dim) - 1 do
    counts.(x) <- 0
  done;
  (* the tag [stamp lsl 24] must stay within an int *)
  if st.stamp = 1 lsl 38 then begin
    Array.fill slots 0 (Array.length slots) 0;
    st.stamp <- 0
  end;
  st.stamp <- st.stamp + 1;
  let stamp = st.stamp lsl 24 and mask = Array.length slots - 1 in
  let kept = ref 0 and eqs = ref 0 and f = ref 0 and t = ref 0 in
  let r = ref 0 and refuted = ref false in
  while (not !refuted) && !r < n do
    let o = base + (!r * w) and t0 = !t in
    let tt = ref t0 and g = ref 0 in
    for j = 0 to dim - 1 do
      let v = m.(o + 1 + j) in
      if v <> 0 then begin
        var.(!tt) <- j;
        coef.(!tt) <- v;
        incr tt;
        if !g <> 1 then begin
          let a = abs v in
          g := if a = 1 then 1 else if !g = 0 then a else gcd_int !g a
        end
      end
    done;
    let g = !g and tt = !tt and c = m.(o) and is_eq = !r < neq in
    if g = 0 then refuted := if is_eq then c <> 0 else c < 0
    else if is_eq && c mod g <> 0 then refuted := true
    else begin
      let c = if g = 1 || is_eq then c / g else fdiv_int c g in
      if g > 1 then
        for u = t0 to tt - 1 do
          coef.(u) <- coef.(u) / g
        done;
      (* the class of an inequality already seen, or -1 *)
      let same =
        if is_eq then -1
        else begin
          let h = ref 0 in
          for u = t0 to tt - 1 do
            h := (((!h * 65599) + var.(u)) * 65599) + coef.(u)
          done;
          let h = !h land max_int in
          let i = ref (h land mask) and found = ref (-2) in
          while !found = -2 do
            let s = slots.(!i) in
            if s lsr 24 <> st.stamp then begin
              slots.(!i) <- stamp lor !kept;
              hashes.(!kept) <- h;
              found := -1
            end
            else begin
              let k = s land 0xFF_FFFF in
              let kf = k + !eqs in
              let k0 = first.(kf) in
              let same = ref (hashes.(k) = h && first.(kf + 1) - k0 = tt - t0) in
              let u = ref 0 in
              while !same && !u < tt - t0 do
                same :=
                  var.(k0 + !u) = var.(t0 + !u) && coef.(k0 + !u) = coef.(t0 + !u);
                incr u
              done;
              if !same then found := k else i := (!i + 1) land mask
            end
          done;
          !found
        end
      in
      if same >= 0 then begin
        (* a parallel inequality: the smaller constant stays *)
        let ko = base + (same * w) in
        if c < m.(ko) then begin
          m.(ko) <- c;
          const.(same + !eqs) <- c
        end
      end
      else begin
        let d = base + (!kept * w) in
        m.(d) <- c;
        if g > 1 || d <> o then
          for j = 1 to dim do
            m.(d + j) <- m.(o + j) / g
          done;
        first.(!f) <- t0;
        const.(!f) <- c;
        incr f;
        t := tt;
        if is_eq then begin
          first.(!f) <- tt;
          const.(!f) <- -c;
          for u = t0 to tt - 1 do
            var.(!t) <- var.(u);
            coef.(!t) <- -coef.(u);
            incr t
          done;
          incr f;
          incr eqs
        end
        else
          for u = t0 to tt - 1 do
            let x = 4 * var.(u) and v = coef.(u) in
            if v > 0 then begin
              counts.(x) <- counts.(x) + 1;
              if v <> 1 then counts.(x + 2) <- counts.(x + 2) + 1
            end
            else begin
              counts.(x + 1) <- counts.(x + 1) + 1;
              if v <> -1 then counts.(x + 3) <- counts.(x + 3) + 1
            end
          done;
        first.(!f) <- !t;
        incr kept
      end
    end;
    incr r
  done;
  st.eqs <- !eqs;
  if !refuted then -1 else !kept

(* [solve] on the [n] rows at [base], of which the first [neq] are
   equalities. *)
let rec nat_solve st bgt dim base neq n =
  charge bgt 1;
  let n = scan st dim base neq n in
  n >= 0 && nat_solve_split st bgt dim base st.eqs n

(* The pre-pass runs on the forms [scan] laid out; its sweeps are charged
   one unit at a time once it has finished, so a budget gives up where
   [exact_intervals]'s would. *)
and nat_solve_split st bgt dim base neq n =
  let outcome = sweep st.lay (n + neq) dim in
  for _ = 1 to abs outcome do
    charge bgt 1
  done;
  if outcome < 0 then false
  else if neq = 0 then nat_solve_ineqs st bgt dim base n
  else nat_solve_eq st bgt dim base neq n

(* [solve_eq] on row 0, the others being rows 1 to [n - 1] *)
and nat_solve_eq st bgt dim base neq n =
  let w = dim + 1 and m = st.rows in
  let unit_var = ref (-1) and j = ref 0 in
  while !unit_var < 0 && !j < dim do
    let c = m.(base + 1 + !j) in
    if c = 1 || c = -1 then unit_var := !j;
    incr j
  done;
  if !unit_var >= 0 then begin
    (* x_k = -u * (row 0 without x_k); each other row gains a_k times it,
       in place: the rows become the child's *)
    let k = !unit_var in
    let u = m.(base + 1 + k) in
    for r = 1 to n - 1 do
      let o = base + (r * w) in
      let f = m.(o + 1 + k) * u in
      if f <> 0 then begin
        for j = 0 to dim do
          m.(o + j) <- fit (m.(o + j) - (f * m.(base + j)))
        done;
        m.(o + 1 + k) <- 0
      end
    done;
    nat_solve st bgt dim (base + w) (neq - 1) (n - 1)
  end
  else begin
    (* Pugh's reduction, with sigma at index [dim]: the reduced row is
       written past the child's rows *)
    let k = ref (-1) in
    for j = 0 to dim - 1 do
      let c = abs m.(base + 1 + j) in
      if c <> 0 && (!k < 0 || c < abs m.(base + 1 + !k)) then k := j
    done;
    let k = !k in
    let md = abs m.(base + 1 + k) + 1 in
    let dim' = dim + 1 in
    let w' = dim' + 1 in
    let child = alloc st ((n + 1) * w') in
    let m = st.rows in
    let red = child + (n * w') in
    for j = 0 to dim do
      m.(red + j) <- mod_hat_int m.(base + j) md
    done;
    m.(red + dim') <- -md;
    let u = m.(red + 1 + k) in
    assert (u = 1 || u = -1);
    for r = 0 to n - 1 do
      let o = base + (r * w) and d = child + (r * w') in
      let f = m.(o + 1 + k) * u in
      if f = 0 then begin
        for j = 0 to dim do
          m.(d + j) <- m.(o + j)
        done;
        m.(d + dim') <- 0
      end
      else begin
        for j = 0 to dim' do
          m.(d + j) <- fit ((if j < w then m.(o + j) else 0) - (f * m.(red + j)))
        done;
        m.(d + 1 + k) <- 0
      end
    done;
    nat_solve st bgt dim' child neq n
  end

and nat_solve_ineqs st bgt dim base n =
  let w = dim + 1 and counts = st.counts in
  let choice = ref (-1) and exact = ref false and cost = ref 0 in
  let lowers = ref 0 and uppers = ref 0 in
  for k = 0 to dim - 1 do
    let n_lo = counts.(4 * k) and n_up = counts.((4 * k) + 1) in
    if n_lo + n_up > 0 then begin
      let e = counts.((4 * k) + 2) = 0 || counts.((4 * k) + 3) = 0 in
      let c = n_lo * n_up in
      if !choice < 0 || if e <> !exact then e else c < !cost then begin
        choice := k;
        exact := e;
        cost := c;
        lowers := n_lo;
        uppers := n_up
      end
    end
  done;
  if !choice < 0 then true
  else begin
    let k = !choice and exact = !exact and cost = !cost in
    let rows = cost + n - !lowers - !uppers in
    charge bgt (max 1 cost);
    (* [combine @ rest]: lowers outer and uppers inner, each in reverse
       row order as [split_on] lists them, then the rest reversed; the
       combination [b*u + a*r] of the full rows has a zero at [k] *)
    let combined dark =
      let child = alloc st (rows * w) in
      let m = st.rows and d = ref child in
      for li = n - 1 downto 0 do
        let lo = base + (li * w) in
        let b = m.(lo + 1 + k) in
        if b > 0 then
          for ui = n - 1 downto 0 do
            let up = base + (ui * w) in
            let a = -m.(up + 1 + k) in
            if a > 0 then begin
              let slack = if dark then (a - 1) * (b - 1) else 0 in
              m.(!d) <- fit ((b * m.(up)) + (a * m.(lo)) - slack);
              for j = 1 to dim do
                m.(!d + j) <- fit ((b * m.(up + j)) + (a * m.(lo + j)))
              done;
              d := !d + w
            end
          done
      done;
      for r = n - 1 downto 0 do
        let o = base + (r * w) in
        if m.(o + 1 + k) = 0 then begin
          for j = 0 to dim do
            m.(!d + j) <- m.(o + j)
          done;
          d := !d + w
        end
      done;
      child
    in
    if exact then nat_solve st bgt dim (combined false) 0 rows
    else begin
      let mark = st.top in
      let real = nat_solve st bgt dim (combined false) 0 rows in
      st.top <- mark;
      real
      &&
      let dark = nat_solve st bgt dim (combined true) 0 rows in
      st.top <- mark;
      dark
      ||
      (* splinters: per lower bound [b*x + r >= 0], the equalities
         [b*x + r = i] for [i] in [0, kmax], each solved with every row *)
      let amax = ref 1 and m = st.rows in
      for r = 0 to n - 1 do
        amax := max !amax (-m.(base + (r * w) + 1 + k))
      done;
      let amax = !amax in
      let rec lower li =
        li >= 0
        &&
        let lo = base + (li * w) in
        let b = st.rows.(lo + 1 + k) in
        if b <= 0 then lower (li - 1)
        else
          let kmax = fdiv_int ((b * amax) - (b + amax)) amax in
          let rec try_i i =
            if i > kmax then lower (li - 1)
            else begin
              st.splinters <- st.splinters + 1;
              charge bgt 1;
              let child = alloc st ((n + 1) * w) in
              let m = st.rows in
              m.(child) <- fit (m.(lo) - i);
              for j = 1 to dim do
                m.(child + j) <- m.(lo + j)
              done;
              Array.blit m base m (child + w) (n * w);
              let sat = nat_solve st bgt dim child 1 (n + 1) in
              st.top <- mark;
              sat || try_i (i + 1)
            end
          in
          try_i 0
      in
      lower (n - 1)
    end
  end

(* A query's normalized rows on the twin, equalities first, laid out as
   one matrix at the bottom of the stack and [scan]ned: the rows kept, or
   [Out_of_range] when a value is not within [native_bound]. *)
let nat_rows st dim (eqs : Constr.t list) (ges : Constr.t list) =
  let neq = List.length eqs in
  let n = neq + List.length ges and w = dim + 1 in
  st.top <- 0;
  let base = alloc st (n * w) in
  let m = st.rows in
  let rec put r = function
    | [] -> ()
    | (c : Constr.t) :: cs ->
      let o = base + (r * w) and coeffs = (c.aff : Affine.t).coeffs in
      m.(o) <- native_of c.aff.const;
      for j = 0 to dim - 1 do
        m.(o + 1 + j) <- native_of coeffs.(j)
      done;
      put (r + 1) cs
  in
  put 0 eqs;
  put neq ges;
  (* the rows are normalized already, so [scan] only dedupes and lays out *)
  scan st dim base neq n

let nat_first_level st bgt dim (p : prepared) =
  let n = nat_rows st dim p.eqs p.ges in
  nat_solve_split st bgt dim 0 st.eqs n

let prepass dim eqs ges =
  let st = acquire () in
  match
    Fun.protect
      ~finally:(fun () -> release st)
      (fun () ->
        let n = nat_rows st dim eqs ges in
        if n < 0 then invalid_arg "Omega.prepass: a row is false";
        let outcome = sweep st.lay (n + st.eqs) dim in
        (abs outcome, outcome < 0, st.lay.run))
  with
  | result -> result
  | exception Out_of_range ->
    let bgt =
      { remaining = max_int; spent = 0; deadline = infinity; tick = 0 }
    in
    let refuted = exact_intervals bgt dim eqs (Constr.dedupe ges) in
    (bgt.spent, refuted, bgt.spent)

(* A system's identity, shared by the memo and the disk cache: the MD5 of
   a binary rendering of its normalized rows.  Each row is gcd-divided
   and integer-tightened by [prepare] and rendered sparsely; the
   renderings are sorted and deduplicated.  Two systems that differ only
   in constraint order, duplicated constraints, positive scaling, or
   trailing fresh variables (all-zero coefficients render away) share a
   digest, and satisfiability is invariant under all four, so a cached
   verdict is exact.
   A value is written as the zigzag varint of its native [int]; zigzag
   sends only [min_int] to the all-ones code, and [min_int] is boxed, so
   that code, followed by the length and digits of [B.to_string], marks
   every boxed value.  A row is its kind, then per nonzero coefficient the
   varint of its index plus one, then a zero byte, then its constant; the
   encoding is prefix-free, so the sorted, deduplicated rows concatenate
   without ambiguity. *)
let add_varint buf v =
  (* [v] read as an unsigned 63-bit number *)
  let v = ref v in
  while !v land lnot 127 <> 0 do
    Buffer.add_char buf (Char.unsafe_chr (!v land 127 lor 128));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !v)

let add_value buf x =
  if B.is_small x then
    let n = B.to_small x in
    add_varint buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))
  else begin
    let digits = B.to_string x in
    add_varint buf (-1);
    add_varint buf (String.length digits);
    Buffer.add_string buf digits
  end

let row_bytes buf (c : Constr.t) =
  Buffer.clear buf;
  Buffer.add_char buf (match c.kind with Constr.Eq -> 'e' | Constr.Ge -> 'g');
  let coeffs = (c.aff : Affine.t).coeffs in
  for i = 0 to Array.length coeffs - 1 do
    let x = coeffs.(i) in
    if x != B.zero then begin
      add_varint buf (i + 1);
      add_value buf x
    end
  done;
  Buffer.add_char buf '\000';
  add_value buf c.aff.const;
  Buffer.contents buf

let rows_digest rows =
  let buf = Buffer.create 64 in
  let rows = List.sort_uniq String.compare (List.map (row_bytes buf) rows) in
  Digest.string (String.concat "" rows)

let digest s = rows_digest (prepare (System.constraints s)).rows

(* One budgeted query on its prepared rows: build the per-query budget
   from the context's configuration (a starved query index forces fuel 0)
   and the domain's ambient deadline, run the solver, account the fuel,
   and turn budget exhaustion into [Unknown].  The first level is
   [solve]'s, with the rows [prepare] already normalized.  It runs on the
   twin when [native] holds, charging the budget as it goes; a value that
   leaves the twin's range puts the budget back as it was at the query's
   start, and the query runs again on [Bigint].  The twin's splinters
   reach the context once, with its verdict or its give-up. *)
let solve_sys ~native ctx ~query_index dim p =
  let starved =
    match ctx.Ctx.starve_after with
    | Some k -> query_index >= k
    | None -> false
  in
  let remaining =
    if starved then 0
    else match ctx.Ctx.fuel with Some f -> max 0 f | None -> max_int
  in
  let bgt =
    { remaining;
      spent = 0;
      deadline =
        Float.min (Runner.deadline ())
          (match ctx.Ctx.timeout_ms with
          | Some ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.0)
          | None -> infinity);
      tick = 0 }
  in
  let account () = ignore (Atomic.fetch_and_add ctx.Ctx.fuel_spent bgt.spent) in
  let exact () =
    charge bgt 1;
    (not p.refuted) && solve_split ctx bgt dim p.eqs (Constr.dedupe p.ges)
  in
  let first_level () =
    if not native then exact ()
    else begin
      let st = acquire () in
      let finish () =
        ignore (Atomic.fetch_and_add ctx.Ctx.splinters st.splinters);
        release st
      in
      st.splinters <- 0;
      match
        charge bgt 1;
        (not p.refuted) && nat_first_level st bgt dim p
      with
      | sat ->
        finish ();
        sat
      | exception Out_of_range ->
        release st;
        bgt.remaining <- remaining;
        bgt.spent <- 0;
        bgt.tick <- 0;
        exact ()
      | exception e ->
        finish ();
        raise e
    end
  in
  match first_level () with
  | sat ->
    account ();
    if sat then Sat else Unsat
  | exception Give_up reason ->
    account ();
    Atomic.incr ctx.Ctx.unknowns;
    Unknown reason

let decide ~ctx s =
  let query_index = Atomic.fetch_and_add ctx.Ctx.queries 1 in
  let p = prepare (System.constraints s) in
  match (ctx.Ctx.table, ctx.Ctx.backing) with
  | None, None -> solve_sys ~native:true ctx ~query_index (System.dim s) p
  | table, backing -> (
    (* One 16-byte digest addresses both stores: text keys of a few
       hundred bytes once grew a daemon's memory by a fifth. *)
    let digest = rows_digest p.rows in
    let memo_store sat =
      Option.iter
        (fun t ->
          Mutex.protect ctx.Ctx.lock (fun () ->
              if not (Hashtbl.mem t digest) then Hashtbl.add t digest sat))
        table
    in
    let cached =
      Option.bind table (fun t ->
          Mutex.protect ctx.Ctx.lock (fun () -> Hashtbl.find_opt t digest))
    in
    match cached with
    | Some sat ->
      Atomic.incr ctx.Ctx.hits;
      if sat then Sat else Unsat
    | None -> (
      (* the external store sits behind the memo; a disk hit fills the
         in-process table so the next repeat is a memory lookup *)
      match Option.bind backing (fun b -> b.bk_find digest) with
      | Some sat ->
        Atomic.incr ctx.Ctx.backing_hits;
        memo_store sat;
        if sat then Sat else Unsat
      | None ->
        Atomic.incr ctx.Ctx.misses;
        (* solve outside the lock: concurrent domains may duplicate a miss,
           but never block each other on a long elimination *)
        let v = solve_sys ~native:true ctx ~query_index (System.dim s) p in
        (match v with
        | Sat | Unsat ->
          let sat = v = Sat in
          memo_store sat;
          Option.iter (fun b -> b.bk_store digest sat) backing
        | Unknown _ ->
          (* an exhausted query is not a verdict: caching it would launder
             "gave up" into an exact answer on the next lookup *)
          ());
        v))

let decide_exact ~ctx s =
  let query_index = Atomic.fetch_and_add ctx.Ctx.queries 1 in
  solve_sys ~native:false ctx ~query_index (System.dim s)
    (prepare (System.constraints s))

let satisfiable ~ctx s =
  match decide ~ctx s with Sat -> true | Unsat -> false | Unknown _ -> true

let implies ~ctx s (c : Constr.t) =
  match c.kind with
  | Constr.Ge -> not (satisfiable ~ctx (System.add s (Constr.negate_ge c)))
  | Constr.Eq ->
    (not (satisfiable ~ctx (System.add s (Constr.negate_ge (Constr.ge c.aff)))))
    && not
         (satisfiable ~ctx
            (System.add s (Constr.negate_ge (Constr.ge (Affine.neg c.aff)))))
