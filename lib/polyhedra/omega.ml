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
   [max_sweeps] sweeps have run, charging one fuel unit per sweep.  It runs
   on native ints: the forms are laid out once as flat arrays (per term its
   variable index and coefficient, per form its constant and first term),
   and each bound is an [int] with a presence flag.  Every input value and
   every bound must lie in [-native_bound, native_bound] (2^30), so a
   product of a coefficient and a bound stays within 2^60; a partial sum
   must stay within 2^61, so adding the next product cannot overflow.  Any
   value outside those ranges raises [Out_of_range], and the whole call
   runs again from scratch in [exact_intervals], the same algorithm over
   [Bigint].  The native attempt charges its sweeps only once it has
   finished, one unit at a time, so the abandoned attempt charges nothing
   and the fuel, the point where a budget gives up and the verdict are
   those of [exact_intervals] on every system.

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
   call to [exact_intervals], which runs the same sweeps on [Bigint] and so
   also charges [max_sweeps] without refuting.
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

(* The certificate above, after a sweep of [native_intervals] whose
   presence is final, from the forms' layout, the bounds, and for each
   lower bound the form that last raised it and when.  A top-level
   function, so that a call that never reaches it allocates nothing for
   it. *)
let creeps ~first ~var ~coef ~const ~lo ~hi ~has_lo ~has_hi ~lo_form ~lo_at =
  let dim = Array.length lo in
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

(* The sweeps charged, whether an interval emptied, and the sweeps run. *)
let native_intervals dim (eqs : Constr.t list) (ges : Constr.t list) =
  let nforms = List.length ges + (2 * List.length eqs) in
  (* A form has at most [dim] terms.  Arrays past 256 words would bypass
     the minor heap, so only a call whose forms could need more counts
     its terms first. *)
  let size =
    if nforms * dim <= 256 then nforms * dim
    else
      let terms (c : Constr.t) =
        Array.fold_left
          (fun n x -> if x == B.zero then n else n + 1)
          0 (c.aff : Affine.t).coeffs
      in
      List.fold_left (fun n c -> n + terms c) 0 ges
      + List.fold_left (fun n c -> n + (2 * terms c)) 0 eqs
  in
  let first = Array.make (nforms + 1) 0 and const = Array.make nforms 0 in
  let var = Array.make size 0 and coef = Array.make size 0 in
  let nterms = ref 0 and laid = ref 0 in
  let lay_out (c : Constr.t) =
    let coeffs = (c.aff : Affine.t).coeffs in
    first.(!laid) <- !nterms;
    const.(!laid) <- native_of c.aff.const;
    for j = 0 to Array.length coeffs - 1 do
      let x = coeffs.(j) in
      if not (B.is_small x) then raise Out_of_range;
      let v = B.to_small x in
      if v <> 0 then begin
        if not (in_range v) then raise Out_of_range;
        var.(!nterms) <- j;
        coef.(!nterms) <- v;
        incr nterms
      end
    done;
    incr laid
  in
  (* an equality's second form is its first, negated *)
  let lay_out_negated () =
    let t0 = first.(!laid - 1) and t1 = !nterms in
    first.(!laid) <- t1;
    const.(!laid) <- -const.(!laid - 1);
    for t = t0 to t1 - 1 do
      var.(!nterms) <- var.(t);
      coef.(!nterms) <- -coef.(t);
      incr nterms
    done;
    incr laid
  in
  List.iter (fun c -> lay_out c; lay_out_negated ()) eqs;
  List.iter lay_out ges;
  first.(nforms) <- !nterms;
  let lo = Array.make dim 0 and hi = Array.make dim 0 in
  let has_lo = Array.make dim false and has_hi = Array.make dim false in
  (* the form that last raised each lower bound, and when, counted in
     lower-bound moves *)
  let lo_form = Array.make dim 0 and lo_at = Array.make dim 0 in
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
      certified :=
        creeps ~first ~var ~coef ~const ~lo ~hi ~has_lo ~has_hi ~lo_form
          ~lo_at
  done;
  if !certified then (max_sweeps, false, !sweeps)
  else (!sweeps, !empty, !sweeps)

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

(* Whether the pre-pass refuted, and the sweeps it ran. *)
let intervals bgt dim eqs ges =
  match native_intervals dim eqs ges with
  | charged, empty, run ->
    for _ = 1 to charged do
      charge bgt 1
    done;
    (empty, run)
  | exception Out_of_range ->
    let spent = bgt.spent in
    let empty = exact_intervals bgt dim eqs ges in
    (empty, bgt.spent - spent)

let prepass dim eqs ges =
  let bgt =
    { remaining = max_int; spent = 0; deadline = infinity; tick = 0 }
  in
  let refuted, run = intervals bgt dim eqs ges in
  (bgt.spent, refuted, run)

let rec solve ctx bgt dim (cs : Constr.t list) =
  charge bgt 1;
  match normalize_split cs with
  | exception Unsat_exn -> false
  | eqs, ges -> solve_split ctx bgt dim eqs ges

and solve_split ctx bgt dim eqs ges =
  if fst (intervals bgt dim eqs ges) then false
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
   [solve]'s, with the rows [prepare] already normalized. *)
let solve_sys ctx ~query_index dim p =
  let starved =
    match ctx.Ctx.starve_after with
    | Some k -> query_index >= k
    | None -> false
  in
  let bgt =
    { remaining =
        (if starved then 0
         else match ctx.Ctx.fuel with Some f -> max 0 f | None -> max_int);
      spent = 0;
      deadline =
        Float.min (Runner.deadline ())
          (match ctx.Ctx.timeout_ms with
          | Some ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.0)
          | None -> infinity);
      tick = 0 }
  in
  let account () = ignore (Atomic.fetch_and_add ctx.Ctx.fuel_spent bgt.spent) in
  let first_level () =
    charge bgt 1;
    (not p.refuted) && solve_split ctx bgt dim p.eqs (Constr.dedupe p.ges)
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
  | None, None -> solve_sys ctx ~query_index (System.dim s) p
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
        let v = solve_sys ctx ~query_index (System.dim s) p in
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
