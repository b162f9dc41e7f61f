(* Tests for the polyhedral substrate: affine forms, constraint systems,
   rational Fourier-Motzkin, and the exact integer Omega test.  The key
   property test compares Omega against brute-force enumeration over small
   boxes, which exercises the real-shadow / dark-shadow / splintering
   paths. *)

module B = Bigint
module A = Polyhedra.Affine
module C = Polyhedra.Constr
module S = Polyhedra.System
module Fm = Polyhedra.Fm
module Omega = Polyhedra.Omega

(* Unbudgeted queries, each on a fresh uncached context of its own. *)
let satisfiable s = Omega.satisfiable ~ctx:(Omega.Ctx.create ()) s
let implies s c = Omega.implies ~ctx:(Omega.Ctx.create ()) s c

let names3 = [| "x"; "y"; "z" |]

let aff coeffs c = A.of_ints coeffs c

(* --- affine forms --- *)

let test_affine_basics () =
  let a = aff [ 1; 2; 0 ] 5 in
  Alcotest.(check string) "eval" "10" (B.to_string (A.eval_int a [| 1; 2; 3 |]));
  let b = A.add a (A.var 3 2) in
  Alcotest.(check string) "eval after add" "13"
    (B.to_string (A.eval_int b [| 1; 2; 3 |]));
  Alcotest.(check bool) "constant" false (A.is_constant a);
  Alcotest.(check bool) "constant 2" true (A.is_constant (A.of_int 3 7));
  Alcotest.(check (list int)) "vars" [ 0; 1 ] (A.vars a)

let test_affine_subst () =
  (* x + 2y + 5 with y := z - 1  gives  x + 2z + 3 *)
  let a = aff [ 1; 2; 0 ] 5 in
  let e = aff [ 0; 0; 1 ] (-1) in
  let r = A.subst a 1 e in
  Alcotest.(check bool) "subst" true (A.equal r (aff [ 1; 0; 2 ] 3))

let test_affine_rename () =
  let a = aff [ 1; 2 ] 7 in
  let r = A.rename a [| 2; 0 |] 3 in
  Alcotest.(check bool) "rename" true (A.equal r (aff [ 2; 0; 1 ] 7))

let test_affine_pp () =
  let s = Format.asprintf "%a" (A.pp names3) (aff [ 1; -2; 0 ] 3) in
  Alcotest.(check string) "pp" "x - 2*y + 3" s;
  let z = Format.asprintf "%a" (A.pp names3) (A.zero 3) in
  Alcotest.(check string) "pp zero" "0" z

(* --- constraints --- *)

let test_constr_normalize () =
  (* 2x + 4y - 5 >= 0 tightens to x + 2y - 3 >= 0 over the integers *)
  let c = C.normalize (C.ge (aff [ 2; 4; 0 ] (-5))) in
  Alcotest.(check bool) "tighten" true (A.equal c.C.aff (aff [ 1; 2; 0 ] (-3)));
  (* equality with non-dividing content stays (caught as unsat by Omega) *)
  let e = C.normalize (C.eq (aff [ 2; 4; 0 ] 1)) in
  Alcotest.(check bool) "eq kept" true (A.equal e.C.aff (aff [ 2; 4; 0 ] 1));
  (* The content is computed on native ints when every coefficient is
     immediate and on Bigint otherwise; 2^62 is the smallest boxed
     magnitude.  Each case goes through Constr.normalize and through the
     solver's own normalization. *)
  let decide cs = Omega.decide ~ctx:(Omega.Ctx.create ()) (S.make [| "x"; "y" |] cs) in
  let verdict =
    Alcotest.testable
      (fun fmt v ->
        Format.pp_print_string fmt
          (match v with
          | Omega.Sat -> "sat"
          | Omega.Unsat -> "unsat"
          | Omega.Unknown r -> "unknown " ^ r))
      ( = )
  in
  let p62 = B.pow B.two 62 in
  let form coeffs const = A.make (Array.of_list coeffs) const in
  let zero_ge_one = C.ge (A.of_int 2 (-1)) and zero_ge_minus_one = C.ge (A.of_int 2 1) in
  Alcotest.(check bool) "0 >= 1 is left alone" true
    (C.equal (C.normalize zero_ge_one) zero_ge_one);
  Alcotest.check verdict "0 >= 1" Omega.Unsat (decide [ zero_ge_one ]);
  Alcotest.check verdict "0 >= -1" Omega.Sat (decide [ zero_ge_minus_one ]);
  let wide_ge = C.ge (form [ p62; p62 ] B.minus_one) in
  Alcotest.(check bool) "2^62 x + 2^62 y >= 1 tightens to x + y >= 1" true
    (A.equal (C.normalize wide_ge).C.aff (A.of_ints [ 1; 1 ] (-1)));
  Alcotest.check verdict "2^62 x + 2^62 y >= 1" Omega.Sat (decide [ wide_ge ]);
  let wide_eq = C.eq (form [ p62; B.zero ] B.minus_one) in
  Alcotest.(check bool) "2^62 x = 1 is left alone" true
    (C.equal (C.normalize wide_eq) wide_eq);
  Alcotest.check verdict "2^62 x = 1" Omega.Unsat (decide [ wide_eq ]);
  let p62x3 = B.mul (B.of_int 3) p62 in
  let scaled_eq = C.eq (form [ p62x3; B.zero ] (B.neg p62x3)) in
  Alcotest.(check bool) "3*2^62 x = 3*2^62 divides to x = 1" true
    (A.equal (C.normalize scaled_eq).C.aff (A.of_ints [ 1; 0 ] (-1)));
  Alcotest.check verdict "3*2^62 x = 3*2^62" Omega.Sat (decide [ scaled_eq ]);
  (* min_int is boxed, yet Bigint.to_int_opt maps it to a native int whose
     abs is negative: a native gcd over to_int_opt values gets these wrong
     unless it leaves min_int to the Bigint path *)
  let content coeffs = B.to_string (A.content (form coeffs B.zero)) in
  Alcotest.(check string) "content [min_int; 6]" "2"
    (content [ B.of_int min_int; B.of_int 6 ]);
  Alcotest.(check string) "content [min_int; 0]" "4611686018427387904"
    (content [ B.of_int min_int; B.zero ])

let test_constr_satisfied () =
  let c = C.ge_of (A.var 3 0) (A.var 3 1) in
  let env l = Array.map B.of_int (Array.of_list l) in
  Alcotest.(check bool) "x>=y true" true (C.satisfied_by c (env [ 3; 2; 0 ]));
  Alcotest.(check bool) "x>=y false" false (C.satisfied_by c (env [ 1; 2; 0 ]))

(* --- systems --- *)

let box lo hi =
  (* lo <= v <= hi for each of the three vars *)
  List.concat_map
    (fun i ->
      [ C.ge_of (A.var 3 i) (A.of_int 3 lo); C.le_of (A.var 3 i) (A.of_int 3 hi) ])
    [ 0; 1; 2 ]

let test_system_eval () =
  let s = S.make names3 (box 0 5) in
  Alcotest.(check bool) "inside" true (S.satisfied_by_ints s [| 0; 5; 3 |]);
  Alcotest.(check bool) "outside" false (S.satisfied_by_ints s [| 0; 6; 3 |])

(* --- Fourier-Motzkin --- *)

let test_fm_bounds () =
  (* 1 <= x <= 10, x <= y, with y to bound: lowers {y >= x}, uppers {} *)
  let s =
    S.make names3
      [ C.ge_of (A.var 3 0) (A.of_int 3 1);
        C.le_of (A.var 3 0) (A.of_int 3 10);
        C.le_of (A.var 3 0) (A.var 3 1) ]
  in
  let lowers, uppers = Fm.bounds_of s 1 in
  Alcotest.(check int) "one lower" 1 (List.length lowers);
  Alcotest.(check int) "no upper" 0 (List.length uppers);
  let b = List.hd lowers in
  Alcotest.(check bool) "lower is x" true
    (B.equal b.Fm.coef B.one && A.equal b.Fm.form (A.var 3 0))

let test_fm_eliminate () =
  (* x <= y <= z: eliminating y yields x <= z *)
  let s =
    S.make names3
      [ C.le_of (A.var 3 0) (A.var 3 1); C.le_of (A.var 3 1) (A.var 3 2) ]
  in
  let p = Fm.eliminate s 1 in
  let expect = C.normalize (C.le_of (A.var 3 0) (A.var 3 2)) in
  Alcotest.(check int) "one constraint" 1 (List.length (S.constraints p));
  Alcotest.(check bool) "x<=z" true (C.equal (List.hd (S.constraints p)) expect)

let test_fm_eliminate_equality () =
  (* y = x + 1, y <= 5: eliminating y gives x <= 4 *)
  let s =
    S.make names3
      [ C.eq_of (A.var 3 1) (A.add_const (A.var 3 0) B.one);
        C.le_of (A.var 3 1) (A.of_int 3 5) ]
  in
  let p = Fm.eliminate s 1 in
  Alcotest.(check bool) "x<=4" true
    (List.exists
       (fun c -> C.equal c (C.normalize (C.le_of (A.var 3 0) (A.of_int 3 4))))
       (S.constraints p))

let test_fm_compress () =
  let s =
    S.make names3
      [ C.ge_of (A.var 3 0) (A.of_int 3 1);
        C.ge_of (A.var 3 0) (A.of_int 3 1);
        C.ge_of (A.var 3 0) (A.of_int 3 3);
        C.ge (A.of_int 3 7) ]
  in
  let c = Fm.compress s in
  (* only the strongest lower bound x >= 3 should remain *)
  Alcotest.(check int) "one left" 1 (List.length (S.constraints c));
  Alcotest.(check bool) "x>=3" true
    (C.equal (List.hd (S.constraints c)) (C.normalize (C.ge_of (A.var 3 0) (A.of_int 3 3))))

(* --- Omega --- *)

let sat cs = satisfiable (S.make names3 cs)

let test_omega_basic () =
  Alcotest.(check bool) "empty" true (sat []);
  Alcotest.(check bool) "box" true (sat (box 0 5));
  Alcotest.(check bool) "1<=x<=0" false
    (sat [ C.ge_of (A.var 3 0) (A.of_int 3 1); C.le_of (A.var 3 0) (A.of_int 3 0) ]);
  Alcotest.(check bool) "0=1" false (sat [ C.eq (A.of_int 3 1) ])

let test_omega_divisibility () =
  (* 2x = 1 has no integer solution *)
  Alcotest.(check bool) "2x=1" false
    (sat [ C.eq (aff [ 2; 0; 0 ] (-1)) ]);
  (* 2x = 4y + 2 does *)
  Alcotest.(check bool) "2x=4y+2" true
    (sat [ C.eq (aff [ 2; -4; 0 ] (-2)) ])

let test_omega_dark_shadow () =
  (* 7 <= 3x <= 8: rationally satisfiable, integrally not *)
  Alcotest.(check bool) "7<=3x<=8" false
    (sat [ C.ge (aff [ 3; 0; 0 ] (-7)); C.ge (aff [ -3; 0; 0 ] 8) ]);
  (* 7 <= 3x <= 9 is fine (x = 3) *)
  Alcotest.(check bool) "7<=3x<=9" true
    (sat [ C.ge (aff [ 3; 0; 0 ] (-7)); C.ge (aff [ -3; 0; 0 ] 9) ])

let test_omega_coupled () =
  (* The classic: 3x + 5y = 1 with 0 <= x,y <= 10 -> x=2,y=-1 out of box;
     exact solutions: x = 2 + 5t, y = -1 - 3t; t=-1: x=-3; none in box. *)
  let cs =
    C.eq (aff [ 3; 5; 0 ] (-1))
    :: List.concat_map
         (fun i ->
           [ C.ge_of (A.var 3 i) (A.of_int 3 0);
             C.le_of (A.var 3 i) (A.of_int 3 10) ])
         [ 0; 1 ]
  in
  Alcotest.(check bool) "3x+5y=1 in box" false (sat cs);
  (* enlarging the box makes it satisfiable (x=7, y=-4 still not >= 0...
     x = 2, y = -1 -> allow y >= -1) *)
  let cs2 =
    C.eq (aff [ 3; 5; 0 ] (-1))
    :: [ C.ge_of (A.var 3 0) (A.of_int 3 0); C.le_of (A.var 3 0) (A.of_int 3 10);
         C.ge_of (A.var 3 1) (A.of_int 3 (-1)); C.le_of (A.var 3 1) (A.of_int 3 10) ]
  in
  Alcotest.(check bool) "3x+5y=1 wider box" true (sat cs2)

let test_omega_block_constraints () =
  (* Block-coordinate style systems: 25b-24 <= j <= 25b (paper Sec. 5.1). *)
  let names = [| "j"; "b" |] in
  let j = A.var 2 0 and b = A.var 2 1 in
  let blockc =
    [ C.ge_of j (A.add_const (A.scale_int 25 b) (B.of_int (-24)));
      C.le_of j (A.scale_int 25 b) ]
  in
  let sat cs = satisfiable (S.make names cs) in
  Alcotest.(check bool) "consistent" true
    (sat (C.ge_of j (A.of_int 2 1) :: C.le_of j (A.of_int 2 100) :: blockc));
  (* j <= 100 and b >= 5 forces j >= 101: unsat *)
  Alcotest.(check bool) "block out of range" false
    (sat
       (C.ge_of j (A.of_int 2 1) :: C.le_of j (A.of_int 2 100)
        :: C.ge_of b (A.of_int 2 5) :: blockc))

let test_omega_cholesky_legality_shape () =
  (* Section 5.1 of the paper: the flow dependence S1 -> S2 in right-looking
     Cholesky is respected by the LHS shackle.  Variables:
     jw (iteration writing A[j,j]), jr, ir (iteration reading A[j,j] in S2),
     bw (block coordinate of the write; diagonal so both coords equal),
     bi, bj (block coordinates of the read instance).  N = 100, 25-blocks.
     The dependence + "blocks in bad order" system must be unsatisfiable,
     for both lexicographic disjuncts. *)
  let names = [| "jw"; "jr"; "ir"; "bw"; "bi"; "bj" |] in
  let v i = A.var 6 i in
  let jw = v 0 and jr = v 1 and ir = v 2 and bw = v 3 and bi = v 4 and bj = v 5 in
  let n = A.of_int 6 100 in
  let in_block idx b =
    [ C.ge_of idx (A.add_const (A.scale_int 25 b) (B.of_int (-24)));
      C.le_of idx (A.scale_int 25 b) ]
  in
  let base =
    [ C.eq_of jr jw; (* same location A[j,j] *)
      C.ge_of jw (A.of_int 6 1); C.le_of jw n;
      C.ge_of jr (A.of_int 6 1); C.le_of jr n;
      C.ge_of ir (A.add_const jr B.one); C.le_of ir n;
      C.ge_of jr jw (* read after write *) ]
    @ in_block jw bw @ in_block ir bi @ in_block jr bj
  in
  let disjunct1 = C.lt_of bi bw in
  let disjunct2 = [ C.eq_of bi bw; C.lt_of bj bw ] in
  Alcotest.(check bool) "first disjunct unsat" false
    (satisfiable (S.make names (disjunct1 :: base)));
  Alcotest.(check bool) "second disjunct unsat" false
    (satisfiable (S.make names (disjunct2 @ base)))

let test_omega_implies () =
  let s =
    S.make names3
      [ C.ge_of (A.var 3 0) (A.of_int 3 2); C.ge_of (A.var 3 1) (A.var 3 0) ]
  in
  Alcotest.(check bool) "implies y>=2" true
    (implies s (C.ge_of (A.var 3 1) (A.of_int 3 2)));
  Alcotest.(check bool) "not implies y>=3" false
    (implies s (C.ge_of (A.var 3 1) (A.of_int 3 3)));
  Alcotest.(check bool) "implies x+y>=4" true
    (implies s (C.ge (aff [ 1; 1; 0 ] (-4))))

(* The decimal rendering the disk cache was addressed by before it
   stored system digests, kept as the reference a digest must split
   like: each constraint normalized and rendered sparsely as kind +
   (index, coefficient) pairs + constant, the renderings sorted and
   deduplicated. *)
let reference_key s =
  let render (c : C.t) =
    let c = C.normalize c in
    let terms =
      List.concat
        (List.mapi
           (fun i x ->
             if B.is_zero x then []
             else [ Printf.sprintf " %d:%s" i (B.to_string x) ])
           (Array.to_list c.C.aff.A.coeffs))
    in
    Printf.sprintf "%c%s|%s"
      (match c.C.kind with C.Eq -> 'e' | C.Ge -> 'g')
      (String.concat "" terms)
      (B.to_string c.C.aff.A.const)
  in
  String.concat ";"
    (List.sort_uniq String.compare (List.map render (S.constraints s)))

(* Each shackle-cache/2 record stores this digest, so a change in the
   rendering would turn every existing cache file into misses.  The
   system pins negative, multi-digit and wider-than-62-bit coefficients
   (including min_int and max_int), gcd normalization, and the dedupe of
   a scaled copy; the reference text shows what the digest covers. *)
let test_system_digest_pinned () =
  let form coeffs const =
    A.make (Array.of_list (List.map B.of_string coeffs)) (B.of_string const)
  in
  let s =
    S.make names3
      [ C.ge (form [ "12"; "-345"; "0" ] "6789");
        C.eq (form [ "1"; "0"; "-2" ] "7");
        C.ge
          (form [ "0"; "1180591620717411303425"; "-110680464442257309696" ]
             "-123456789012345678901234");
        C.ge (form [ "24"; "-690"; "0" ] "13578");
        C.eq (form [ "0"; "0"; "5" ] "-1000000000000000000000");
        C.ge (form [ "-4611686018427387904"; "3"; "0" ] "0");
        C.ge (form [ "0"; "4611686018427387903"; "-2" ] "-5");
        C.ge (form [ "-1"; "0"; "0" ] "100") ]
  in
  Alcotest.(check string) "reference text"
    ("e 0:1 2:-2|7;e 2:1|-200000000000000000000;g 0:-1|100;"
     ^ "g 0:-4611686018427387904 1:3|0;g 0:4 1:-115|2263;"
     ^ "g 1:1180591620717411303425 2:-110680464442257309696"
     ^ "|-123456789012345678901234;g 1:4611686018427387903 2:-2|-5")
    (reference_key s);
  Alcotest.(check string) "digest" "42c242856ef411109c9a38c0b7196c8a"
    (Digest.to_hex (Omega.digest s))

(* Values at the edges of Bigint's two representations: immediates next
   to 2^62 and max_int itself, and the boxed min_int, 2^62 and beyond. *)
let edge_values =
  let p62 = B.pow B.two 62 in
  [ B.of_int max_int; B.of_int (max_int - 1); B.of_int (-max_int);
    B.of_int min_int; p62; B.succ p62; B.neg (B.succ p62);
    B.pow B.two 70; B.neg (B.mul (B.of_int 3) (B.pow B.two 63)) ]

let edge_or_small rng =
  if Fuzzing.Rng.int rng 3 = 0 then Fuzzing.Rng.pick rng edge_values
  else B.of_int (Fuzzing.Rng.range rng (-3) 3)

let with_coeffs (c : C.t) coeffs const =
  let a = A.make coeffs const in
  match c.C.kind with C.Eq -> C.eq a | C.Ge -> C.ge a

(* The digest must split systems exactly as the reference text does, or
   memo hits, and the fuel they save, would move, and disk-cache entries
   would split or merge.  Each sampled system and one variant of it must
   have equal digests exactly when their reference texts are equal, and,
   decided in turn on a fresh caching context, the second query must hit
   the memo exactly then.
   Half of the systems carry wide rows, over immediates near 2^62, min_int
   and boxed values, and also the false equality 2^62 x = 1, so that the
   solver refutes them at once, however wide the rows are. *)
let test_memo_key_splits_like_canonical_key () =
  let equal_keys = ref 0 and distinct_keys = ref 0 in
  for seed = 1 to 250 do
    let rng = Fuzzing.Rng.create seed in
    let dim = 2 + Fuzzing.Rng.int rng 3 in
    let sampled = Fuzzing.Gen.system rng ~dim in
    let names = S.names sampled in
    let wide = seed mod 2 = 0 in
    let rows =
      if not wide then S.constraints sampled
      else
        let wide_row _ =
          let a =
            A.make
              (Array.init dim (fun _ -> edge_or_small rng))
              (edge_or_small rng)
          in
          if Fuzzing.Rng.bool rng then C.eq a else C.ge a
        in
        let x_only v = Array.init dim (fun i -> if i = 0 then v else B.zero) in
        let guard = C.eq (A.make (x_only (B.pow B.two 62)) B.minus_one) in
        S.constraints sampled @ List.init 3 wide_row @ [ guard ]
    in
    let n = List.length rows in
    (* the guard, last, is never the row a variant changes *)
    let target = Fuzzing.Rng.int rng (if wide then n - 1 else n) in
    let change f = List.mapi (fun i c -> if i = target then f c else c) rows in
    let coeffs (c : C.t) = Array.copy c.C.aff.A.coeffs in
    let const (c : C.t) = c.C.aff.A.const in
    let scale k c =
      with_coeffs c (Array.map (B.mul k) (coeffs c)) (B.mul k (const c))
    in
    let swap c =
      let a = coeffs c in
      let i = Fuzzing.Rng.int rng dim and j = Fuzzing.Rng.int rng dim in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t;
      with_coeffs c a (const c)
    in
    let bump c =
      let a = coeffs c and j = Fuzzing.Rng.int rng dim in
      a.(j) <- B.succ a.(j);
      with_coeffs c a (const c)
    in
    let permuted =
      List.map (fun c -> (Fuzzing.Rng.int rng 1000, c)) rows
      |> List.sort compare |> List.map snd
    in
    let small = B.of_int (2 + Fuzzing.Rng.int rng 3) in
    let variants =
      [ ("permuted", S.make names permuted);
        ("duplicated", S.make names (rows @ [ List.nth rows target ]));
        ("scaled", S.make names (change (scale small)));
        ("scaled wide", S.make names (change (scale (B.pow B.two 61))));
        ("fresh variables", S.extend (S.make names rows) [| "f1"; "f2" |]);
        ("coefficient + 1", S.make names (change bump));
        ( "constant - 1",
          S.make names
            (change (fun c -> with_coeffs c (coeffs c) (B.pred (const c)))) );
        ("coefficients swapped", S.make names (change swap)) ]
    in
    List.iter
      (fun (what, variant) ->
        let ctx = Omega.Ctx.create ~cache:true () in
        let base = S.make names rows in
        ignore (Omega.decide ~ctx base);
        ignore (Omega.decide ~ctx variant);
        let same = String.equal (reference_key base) (reference_key variant) in
        if String.equal (Omega.digest base) (Omega.digest variant) <> same then
          Alcotest.failf "seed %d, %s: digests %s but reference texts %s" seed
            what
            (if same then "differ" else "are equal")
            (if same then "are equal" else "differ");
        if (Omega.Ctx.cache_hits ctx = 1) <> same then
          Alcotest.failf "seed %d, %s: memo %s but reference texts %s" seed what
            (if same then "missed" else "hit")
            (if same then "are equal" else "differ");
        incr (if same then equal_keys else distinct_keys))
      variants
  done;
  (* a non-dividing equality keeps its scale: 2x = 1 and 4x = 2 stay apart,
     while 2x = 2 and 4x = 4 both normalize to x = 1 *)
  let hits a b =
    let ctx = Omega.Ctx.create ~cache:true () in
    ignore (Omega.decide ~ctx (S.make names3 [ C.eq a ]));
    ignore (Omega.decide ~ctx (S.make names3 [ C.eq b ]));
    Omega.Ctx.cache_hits ctx
  in
  Alcotest.(check int) "2x = 1 against 4x = 2" 0
    (hits (aff [ 2; 0; 0 ] (-1)) (aff [ 4; 0; 0 ] (-2)));
  Alcotest.(check int) "2x = 2 against 4x = 4" 1
    (hits (aff [ 2; 0; 0 ] (-2)) (aff [ 4; 0; 0 ] (-4)));
  Alcotest.(check bool) "both outcomes occur" true
    (!equal_keys > 0 && !distinct_keys > 0)

(* A list-based statement of Constr.dedupe's contract: one row per
   parallel class in first-seen order, an inequality class keeping its
   smallest constant, and equalities apart unless their constants match. *)
let reference_dedupe cs =
  let classes = ref [] in
  let parallel (c : C.t) (c' : C.t) =
    c.C.kind = c'.C.kind
    && A.dim c.C.aff = A.dim c'.C.aff
    && Array.for_all2 B.equal c.C.aff.A.coeffs c'.C.aff.A.coeffs
    && (c.C.kind = C.Ge || B.equal c.C.aff.A.const c'.C.aff.A.const)
  in
  List.iter
    (fun c ->
      match List.find_opt (fun r -> parallel !r c) !classes with
      | Some r -> if B.compare c.C.aff.A.const !r.C.aff.A.const < 0 then r := c
      | None -> classes := ref c :: !classes)
    cs;
  List.rev_map ( ! ) !classes

(* Lists drawn from a few coefficient vectors, so rows repeat and run
   parallel; vectors up to 24 wide that differ only past their tenth
   entry, beyond what Hashtbl.hash reads; and boxed values. *)
let test_dedupe_reference () =
  for seed = 1 to 400 do
    let rng = Fuzzing.Rng.create seed in
    let dim = 1 + Fuzzing.Rng.int rng 24 in
    let base = Array.init dim (fun _ -> edge_or_small rng) in
    let vectors =
      List.init (1 + Fuzzing.Rng.int rng 4) (fun _ ->
          let v = Array.copy base in
          let j = Fuzzing.Rng.int rng dim in
          v.(j) <- edge_or_small rng;
          v)
    in
    let cs =
      List.init (Fuzzing.Rng.int rng 40) (fun _ ->
          let a = A.make (Fuzzing.Rng.pick rng vectors) (edge_or_small rng) in
          if Fuzzing.Rng.int rng 3 = 0 then C.eq a else C.ge a)
    in
    let got = C.dedupe cs and want = reference_dedupe cs in
    if
      not
        (List.length got = List.length want
        && List.for_all2 C.equal got want)
    then
      Alcotest.failf
        "seed %d: dedupe kept %d rows and the reference %d, or another order"
        seed (List.length got) (List.length want)
  done

(* --- property: Omega vs brute force --- *)

let brute_force_sat cs lo hi =
  let s = S.make names3 cs in
  let found = ref false in
  for x = lo to hi do
    for y = lo to hi do
      for z = lo to hi do
        if (not !found) && S.satisfied_by_ints s [| x; y; z |] then found := true
      done
    done
  done;
  !found

let arb_constraint =
  QCheck.map
    (fun ((a, b, c, d), iseq) ->
      let f = aff [ a; b; c ] d in
      if iseq then C.eq f else C.ge f)
    QCheck.(pair
              (quad (int_range (-3) 3) (int_range (-3) 3) (int_range (-3) 3)
                 (int_range (-6) 6))
              bool)

let prop_omega_exact =
  QCheck.Test.make ~count:400 ~name:"Omega agrees with brute force"
    QCheck.(list_of_size (Gen.int_range 1 4) arb_constraint)
    (fun cs ->
      let full = cs @ box (-4) 4 in
      satisfiable (S.make names3 full) = brute_force_sat full (-4) 4)

let prop_fm_sound =
  (* every integer point of s satisfies the projection of s *)
  QCheck.Test.make ~count:200 ~name:"FM projection is a superset"
    QCheck.(pair (list_of_size (Gen.int_range 1 3) arb_constraint)
              (triple (int_range (-4) 4) (int_range (-4) 4) (int_range (-4) 4)))
    (fun (cs, (x, y, z)) ->
      let s = S.make names3 (cs @ box (-4) 4) in
      QCheck.assume (S.satisfied_by_ints s [| x; y; z |]);
      let p = Fm.eliminate s 2 in
      S.satisfied_by_ints p [| x; y; z |])

let prop_implies_respects_points =
  QCheck.Test.make ~count:200 ~name:"implies holds on all points"
    QCheck.(pair (list_of_size (Gen.int_range 1 3) arb_constraint) arb_constraint)
    (fun (cs, c) ->
      let s = S.make names3 (cs @ box (-3) 3) in
      QCheck.assume (implies s c);
      (* check the implication on every box point *)
      let ok = ref true in
      for x = -3 to 3 do
        for y = -3 to 3 do
          for z = -3 to 3 do
            let env = Array.map B.of_int [| x; y; z |] in
            if S.satisfied_by s env && not (C.satisfied_by c env) then
              ok := false
          done
        done
      done;
      !ok)

(* --- properties driven by the fuzz constraint sampler ---

   Gen.system includes the [-4, 4] box in the sampled system itself, so
   exhaustive enumeration of the box (Brute.feasible) is a complete decision
   procedure and both directions of each comparison are meaningful. *)

let test_omega_vs_brute_sampled () =
  for seed = 1 to 400 do
    let rng = Fuzzing.Rng.create seed in
    let dim = 2 + Fuzzing.Rng.int rng 3 in
    let sys = Fuzzing.Gen.system rng ~dim in
    let brute = Fuzzing.Brute.feasible sys ~bound:4 <> None in
    if satisfiable sys <> brute then
      Alcotest.failf "Omega disagrees with enumeration at seed %d on %s" seed
        (Format.asprintf "%a" S.pp sys)
  done

let test_fm_sound_sampled () =
  (* rational FM elimination only ever over-approximates: every integer
     point of the system satisfies every projection *)
  for seed = 1 to 300 do
    let rng = Fuzzing.Rng.create seed in
    let dim = 2 + Fuzzing.Rng.int rng 3 in
    let sys = Fuzzing.Gen.system rng ~dim in
    match Fuzzing.Brute.feasible sys ~bound:4 with
    | None -> ()
    | Some pt ->
      let k = Fuzzing.Rng.int rng dim in
      if not (S.satisfied_by_ints (Fm.eliminate sys k) pt) then
        Alcotest.failf "FM dropped a point at seed %d (eliminating %d)" seed k
  done

let test_omega_implies_vs_brute_sampled () =
  (* when Omega claims sys => c, no enumerated point may refute it *)
  let checked = ref 0 in
  for seed = 1 to 200 do
    let rng = Fuzzing.Rng.create seed in
    let dim = 2 + Fuzzing.Rng.int rng 2 in
    let sys = Fuzzing.Gen.system rng ~dim in
    let coeffs = List.init dim (fun _ -> Fuzzing.Rng.range rng (-2) 2) in
    let c = C.ge (A.of_ints coeffs (Fuzzing.Rng.range rng (-4) 4)) in
    if implies sys c then begin
      incr checked;
      let refuted =
        Fuzzing.Brute.feasible (S.add sys (C.negate_ge c)) ~bound:4
      in
      match refuted with
      | Some _ -> Alcotest.failf "implies refuted by a box point at seed %d" seed
      | None -> ()
    end
  done;
  Alcotest.(check bool) "some implications actually held" true (!checked > 0)

(* --- wide coefficients ---

   Coefficients near 2^40 make Fourier-Motzkin combinations, products of
   two coefficients, exceed 2^62, so these decisions run through Bigint's
   digit representation as well as its immediates.  Each constraint passes
   near a point of the [-3, 3] box, so verdicts split between sat and
   unsat, and enumerating the [-4, 4] box decides each system exactly. *)

let wide_system rng ~dim =
  let near_2_40 () =
    let w = (1 lsl 40) + Fuzzing.Rng.range rng (-3) 3 in
    if Fuzzing.Rng.bool rng then w else -w
  in
  let cs =
    List.init (Fuzzing.Rng.range rng 1 3) (fun _ ->
        let coeffs =
          List.init dim (fun _ ->
              if Fuzzing.Rng.int rng 3 = 0 then Fuzzing.Rng.range rng (-2) 2
              else near_2_40 ())
        in
        let through =
          List.fold_left2
            (fun acc a p -> acc + (a * p))
            0 coeffs
            (List.init dim (fun _ -> Fuzzing.Rng.range rng (-3) 3))
        in
        if Fuzzing.Rng.int rng 4 = 0 then C.eq (A.of_ints coeffs (-through))
        else
          C.ge
            (A.of_ints coeffs
               (Fuzzing.Rng.range rng (-(1 lsl 40)) (1 lsl 40) - through)))
  in
  let box =
    List.concat
      (List.init dim (fun i ->
           [ C.ge_of (A.var dim i) (A.of_int dim (-4));
             C.le_of (A.var dim i) (A.of_int dim 4) ]))
  in
  S.make (Array.sub [| "x"; "y"; "z" |] 0 dim) (cs @ box)

(* Systems on which the interval pre-pass leaves any native range the
   solver's integer kernels accept, so it runs again on Bigint.  Each comes
   with its verdict.  The first five have coefficients or constants near
   2^61, which no native layout holds.  The last two have every input within
   2^30, but their second sweep propagates y >= 2^31, so a native attempt
   is abandoned after it has run a full sweep. *)
let rerun_systems =
  let big = 1 lsl 61 in
  let x = A.var 2 0 and y = A.var 2 1 and k c = A.of_int 2 c in
  let box =
    [ C.ge_of x (k (-4)); C.le_of x (k 4); C.ge_of y (k (-4)); C.le_of y (k 4) ]
  in
  (* (2^61 + 1)x - (2^61 - 1)y = 2^61(x - y) + x + y, which is c inside the
     box only when x = y and 2x = c *)
  let wide c = C.eq (A.of_ints [ big + 1; -(big - 1) ] (-c)) in
  (* y >= 2^29 x, listed first so that x >= 4 is known only in sweep 2 *)
  let grows = C.ge (A.of_ints [ -(1 lsl 29); 1 ] 0) in
  [ ([ C.ge_of x (k big); C.le_of x (k (big + 2)); C.eq_of x (A.scale_int 2 y) ],
     Omega.Sat);
    (* 2^61 = 2 mod 3, so [2^61 + 2, 2^61 + 3] holds no multiple of 3 *)
    ([ C.ge (A.of_ints [ 3; 0 ] (-(big + 2))); C.ge (A.of_ints [ -3; 0 ] (big + 3)) ],
     Omega.Unsat);
    ([ C.ge (A.of_ints [ 3; 0 ] (-big)); C.ge (A.of_ints [ -3; 0 ] (big + 1)) ],
     Omega.Sat);
    (wide 2 :: box, Omega.Sat);
    (wide 3 :: box, Omega.Unsat);
    ([ grows; C.ge_of x (k 4); C.le_of x (k 4) ], Omega.Sat);
    ([ grows; C.ge_of x (k 4); C.le_of y (k (1 lsl 30)) ], Omega.Unsat) ]

(* The solver's work is pinned as well as its verdicts: the totals below
   are those of commit 67c6685, whose interval pre-pass ran on Bigint
   alone, computed on a checkout of it.  A native kernel whose exact re-run
   charged a sweep twice, or gave up at another point, moves them. *)
let test_omega_wide_coefficients () =
  let ctx = Omega.Ctx.create () in
  let sat = ref 0 and unsat = ref 0 in
  for seed = 1 to 150 do
    let rng = Fuzzing.Rng.create seed in
    let sys = wide_system rng ~dim:(2 + Fuzzing.Rng.int rng 2) in
    let brute = Fuzzing.Brute.feasible sys ~bound:4 <> None in
    match Omega.decide ~ctx sys with
    | Omega.Unknown r -> Alcotest.failf "gave up (%s) at seed %d" r seed
    | v ->
      if (v = Omega.Sat) <> brute then
        Alcotest.failf "Omega disagrees with enumeration at seed %d on %s"
          seed (Format.asprintf "%a" S.pp sys);
      incr (if brute then sat else unsat)
  done;
  Alcotest.(check bool) "both verdicts occur" true (!sat > 0 && !unsat > 0);
  List.iteri
    (fun i (cs, expect) ->
      let v = Omega.decide ~ctx (S.make [| "x"; "y" |] cs) in
      if v <> expect then Alcotest.failf "re-run system %d: wrong verdict" i;
      incr (if v = Omega.Sat then sat else unsat))
    rerun_systems;
  Alcotest.(check (list int)) "sat, unsat, fuel, splinters"
    [ 110; 47; 3998; 27 ]
    [ !sat; !unsat; Omega.Ctx.fuel_spent ctx; Omega.Ctx.splinters ctx ]

(* --- row arithmetic across the immediate/boxed boundary ---

   Affine's row operations and Constr.normalize run each coefficient
   inline while its operands are immediates and call Bigint otherwise, so
   each must return exactly what a per-coefficient fold of the Bigint
   function it replaces returns.  One representation per value makes
   structural equality exact.  Values are drawn around 0, +-2^30, +-2^31
   (the native product bound), +-2^61, +-max_int and min_int. *)

let gen_edge =
  let open QCheck.Gen in
  let near base =
    map (fun o -> B.add (B.of_int base) (B.of_int o)) (int_range (-2) 2)
  in
  frequency
    [ (2, map B.of_int (int_range (-3) 3));
      ( 5,
        oneofl
          [ 1 lsl 30; -(1 lsl 30); 1 lsl 31; -(1 lsl 31); 1 lsl 61; -(1 lsl 61);
            max_int; -max_int ]
        >>= near );
      ( 1,
        map (fun o -> B.sub (B.of_int min_int) (B.of_int o)) (int_range 0 2) ) ]

let map_row f (a : A.t) = A.make (Array.map f a.A.coeffs) (f a.A.const)

let map_row2 f (a : A.t) (b : A.t) =
  A.make (Array.map2 f a.A.coeffs b.A.coeffs) (f a.A.const b.A.const)

let reference_content (a : A.t) = Array.fold_left B.gcd B.zero a.A.coeffs

let reference_divexact (a : A.t) g =
  A.make
    (Array.map (fun c -> if B.is_zero c then c else B.divexact c g) a.A.coeffs)
    (B.divexact a.A.const g)

let reference_div_floor (a : A.t) g =
  A.make
    (Array.map (fun c -> if B.is_zero c then c else B.divexact c g) a.A.coeffs)
    (B.fdiv a.A.const g)

let reference_normalize (c : C.t) =
  let g = reference_content c.C.aff in
  if B.is_zero g then c
  else
    match c.C.kind with
    | C.Eq ->
      if B.is_zero (B.frem c.C.aff.A.const g) then
        C.eq (reference_divexact c.C.aff g)
      else c
    | C.Ge ->
      if B.equal g B.one then c else C.ge (reference_div_floor c.C.aff g)

let prop_row_arithmetic =
  let gen =
    let open QCheck.Gen in
    int_range 1 4 >>= fun dim ->
    let row =
      map2
        (fun cs c -> A.make (Array.of_list cs) c)
        (list_repeat dim gen_edge) gen_edge
    in
    tup4 (pair row row) (pair row row) (tup3 gen_edge gen_edge gen_edge)
      (int_bound (dim - 1))
  in
  let print ((a, _), _, _, _) = Format.asprintf "%a" (A.pp [||]) a in
  QCheck.Test.make ~count:2000 ~name:"row arithmetic = per-coefficient Bigint"
    (QCheck.make ~print gen)
    (fun ((a, b), (e, r), (k, k2, g), j) ->
      let e = A.set_coeff e j B.zero in
      let akj = a.A.coeffs.(j) in
      let subst =
        if B.is_zero akj then a
        else
          A.make
            (Array.mapi
               (fun i c ->
                 if i = j then B.zero else B.add c (B.mul akj e.A.coeffs.(i)))
               a.A.coeffs)
            (B.add a.A.const (B.mul akj e.A.const))
      in
      let g = if B.is_zero g then B.two else g in
      (* multiples of [g], with an arbitrary constant for the floor *)
      let m = map_row (B.mul g) r and gabs = B.abs g in
      let m_floor = A.make (map_row (B.mul gabs) r).A.coeffs b.A.const in
      let normalized c = C.normalize c = reference_normalize c in
      A.add a b = map_row2 B.add a b
      && A.sub a b = map_row2 B.sub a b
      && A.neg a = map_row B.neg a
      && A.scale k a = map_row (B.mul k) a
      && A.add_const a k = A.make a.A.coeffs (B.add a.A.const k)
      && A.subst a j e = subst
      && A.content a = reference_content a
      && A.content m = reference_content m
      && A.divexact m g = reference_divexact m g
      && A.div_floor m_floor gabs = reference_div_floor m_floor gabs
      && A.combine k a k2 b
         = map_row2 (fun u l -> B.sub (B.mul k u) (B.mul k2 l)) a b
      && List.for_all normalized
           [ C.ge a; C.eq a; C.ge m; C.eq m; C.ge m_floor; C.eq m_floor ])

let test_row_arithmetic () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 32 |]) prop_row_arithmetic

(* --- the interval pre-pass ---

   The pre-pass proves, a few sweeps in, that a creeping call can never
   refute, and then charges the sweeps the full run would have charged.
   Its outcome must be that of the plain sweep loop, kept here on Bigint
   with no proof: at most 16 sweeps, each tightening every variable a form
   bounds, until no bound moves or an interval empties. *)
let reference_prepass dim eqs ges =
  let lo = Array.make dim None and hi = Array.make dim None in
  let forms =
    List.concat_map
      (fun (c : C.t) ->
        match c.C.kind with
        | C.Ge -> [ c.C.aff ]
        | C.Eq -> [ c.C.aff; A.neg c.C.aff ])
      (eqs @ ges)
  in
  let empty = ref false and changed = ref true and sweeps = ref 0 in
  while !changed && (not !empty) && !sweeps < 16 do
    changed := false;
    incr sweeps;
    List.iter
      (fun aff ->
        let vars = A.vars aff in
        if not !empty then
          List.iter
            (fun k ->
              let rest_max =
                List.fold_left
                  (fun acc j ->
                    if j = k then acc
                    else
                      let aj = A.coeff aff j in
                      match (acc, if B.sign aj > 0 then hi.(j) else lo.(j)) with
                      | Some sum, Some v -> Some (B.add sum (B.mul aj v))
                      | _ -> None)
                  (Some (A.const_of aff)) vars
              in
              match rest_max with
              | None -> ()
              | Some rm ->
                let ak = A.coeff aff k in
                if B.sign ak > 0 then begin
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
  (!sweeps, !empty)

(* A system's rows as the solver's first level hands them to the pre-pass:
   normalized, constant rows dropped, equalities first, the inequalities
   deduplicated. *)
let prepass_input (rows : C.t list) =
  let rows =
    List.filter
      (fun (c : C.t) -> not (A.is_constant c.C.aff))
      (List.map C.normalize rows)
  in
  let eqs, ges = List.partition (fun (c : C.t) -> c.C.kind = C.Eq) rows in
  (eqs, C.dedupe ges)

(* Systems the certificate is for: free parameters, one-sided orderings
   [a*x >= b*y + c] and equalities [x = y + c] that make bounds creep, block
   pairs [k*y <= x <= k*y + k - 1] with [y >= 1], each with a row that
   contradicts it, anchors [x >= c], and some doubly bounded variables. *)
let gen_prepass_system =
  let open QCheck.Gen in
  int_range 2 6 >>= fun dim ->
  let var = int_bound (dim - 1) and v i = A.var dim i in
  let k c = A.of_int dim c in
  let coef = frequency [ (3, return 1); (1, int_range 2 3) ] in
  let row =
    frequency
      [ ( 4,
          map3
            (fun (x, a) (y, b) c ->
              [ C.ge_of (A.scale_int a (v x))
                  (A.add_const (A.scale_int b (v y)) (B.of_int c)) ])
            (pair var coef) (pair var coef) (int_range (-2) 9) );
        ( 1,
          map3 (fun x y c -> [ C.eq_of (v x) (A.add_const (v y) (B.of_int c)) ])
            var var (int_range (-1) 1) );
        (2, map2 (fun x c -> [ C.ge_of (v x) (k c) ]) var (int_range (-3) 5));
        ( 2,
          map3
            (fun (x, y) kk above ->
              let ky = A.scale_int kk (v y) in
              [ C.ge_of (v y) (k 1); C.ge_of (v x) ky;
                C.le_of (v x) (A.add_const ky (B.of_int (kk - 1)));
                (if above then C.ge_of (v x) (A.add_const ky (B.of_int kk))
                 else C.le_of (v x) (A.add_const ky B.minus_one)) ])
            (pair var var) (int_range 2 64) bool );
        ( 1,
          map3 (fun x l w -> [ C.ge_of (v x) (k l); C.le_of (v x) (k (l + w)) ])
            var (int_range (-5) 5) (int_range 0 40) ) ]
  in
  map (fun rows -> (dim, List.concat rows)) (list_size (int_range 1 7) row)

let prepass_runs = ref 0 and prepass_certified = ref 0

let prop_prepass =
  let print (dim, rows) =
    Format.asprintf "%a" S.pp
      (S.make (Array.init dim (fun i -> "x" ^ string_of_int i)) rows)
  in
  QCheck.Test.make ~count:1500 ~name:"pre-pass = plain sweep loop"
    (QCheck.make ~print gen_prepass_system)
    (fun (dim, rows) ->
      let eqs, ges = prepass_input rows in
      let charged, refuted, run = Omega.prepass dim eqs ges in
      incr prepass_runs;
      if run < charged then incr prepass_certified;
      (charged, refuted) = reference_prepass dim eqs ges)

let test_prepass_property () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 32 |]) prop_prepass;
  if 5 * !prepass_certified < !prepass_runs then
    Alcotest.failf
      "the pre-pass stopped early on %d of %d systems, under a fifth"
      !prepass_certified !prepass_runs

(* Hand-written pre-pass cases: the system, whether the pre-pass stops
   early on it, and the verdict and total fuel of commit e64edeb, which
   always ran every sweep, computed on a checkout of it.  There, under
   every fuel cap below the total, each query gave up after spending one
   unit more than the cap; every cap must still do exactly that. *)
let prepass_cases =
  let v n i = A.var n i and k n c = A.of_int n c in
  let p21 = 1 lsl 21 in
  let xy = [| "x"; "y" |] in
  [ (* lower bounds creep one unit per sweep *)
    ( "s >= 1, d >= s + 1, s = d", [| "s"; "d" |],
      [ C.ge_of (v 2 0) (k 2 1); C.ge_of (v 2 1) (A.add_const (v 2 0) B.one);
        C.eq_of (v 2 0) (v 2 1) ],
      true, Omega.Unsat, 18 );
    ( "block pair x2 >= 1, x4 >= 32 x2 - 31, x4 <= 32 x2 - 32",
      [| "x0"; "x1"; "x2"; "x3"; "x4" |],
      [ C.ge_of (v 5 2) (k 5 1);
        C.ge_of (v 5 4) (A.add_const (A.scale_int 32 (v 5 2)) (B.of_int (-31)));
        C.le_of (v 5 4)
          (A.add_const (A.scale_int 32 (v 5 2)) (B.of_int (-32))) ],
      true, Omega.Unsat, 19 );
    (* cycles whose raises converge: nothing to certify *)
    ( "x >= 1, 2x >= y + 1, y >= x", xy,
      [ C.ge_of (v 2 0) (k 2 1);
        C.ge_of (A.scale_int 2 (v 2 0)) (A.add_const (v 2 1) B.one);
        C.ge_of (v 2 1) (v 2 0) ],
      false, Omega.Sat, 10 );
    ( "x >= 1, 2x >= y + 9, y >= x", xy,
      [ C.ge_of (v 2 0) (k 2 1);
        C.ge_of (A.scale_int 2 (v 2 0)) (A.add_const (v 2 1) (B.of_int 9));
        C.ge_of (v 2 1) (v 2 0) ],
      false, Omega.Sat, 14 );
    (* a creeping cycle of three raises by (2^21 + 1)/2^21, whose
       composition overflows native ints *)
    ( "creep with an overflowing composition", [| "x"; "y"; "z" |],
      [ C.ge_of (v 3 0) (k 3 0);
        C.ge (A.of_ints [ p21; -(p21 + 1); 0 ] (-1));
        C.ge (A.of_ints [ 0; p21; -(p21 + 1) ] (-1));
        C.ge (A.of_ints [ -(p21 + 1); 0; p21 ] (-1)) ],
      false, Omega.Unsat, 38 );
    (* bounds grow eightfold per sweep and would leave the native range
       in the eleventh *)
    ( "y >= 1, x >= 8y + 1, y >= x", xy,
      [ C.ge_of (v 2 1) (k 2 1);
        C.ge_of (v 2 0) (A.add_const (A.scale_int 8 (v 2 1)) B.one);
        C.ge_of (v 2 1) (v 2 0) ],
      true, Omega.Unsat, 20 );
    (* a cycle s <-> d that creeps and certifies after sweep 1 if
       presence were final; but w <= 9 comes after w >= s, so s gets its
       upper bound only in sweep 2, and the interval empties in sweep 6 *)
    ( "w >= s, w <= 9, s >= 1, d >= s + 1, s >= d", [| "s"; "d"; "w" |],
      [ C.ge_of (v 3 2) (v 3 0); C.le_of (v 3 2) (k 3 9);
        C.ge_of (v 3 0) (k 3 1); C.ge_of (v 3 1) (A.add_const (v 3 0) B.one);
        C.ge_of (v 3 0) (v 3 1) ],
      false, Omega.Unsat, 7 );
    (* x is bounded on both sides, so an interval may still empty *)
    ( "0 <= x <= 100, y >= x + 1, x >= y", xy,
      [ C.ge_of (v 2 0) (k 2 0); C.le_of (v 2 0) (k 2 100);
        C.ge_of (v 2 1) (A.add_const (v 2 0) B.one); C.ge_of (v 2 0) (v 2 1) ],
      false, Omega.Unsat, 19 ) ]

let test_prepass_cases () =
  List.iter
    (fun (what, names, rows, stops_early, verdict, total) ->
      let s = S.make names rows in
      let eqs, ges = prepass_input rows in
      let charged, refuted, run = Omega.prepass (Array.length names) eqs ges in
      if (charged, refuted) <> reference_prepass (Array.length names) eqs ges
      then
        Alcotest.failf "%s: the pre-pass disagrees with the sweep loop" what;
      Alcotest.(check bool)
        (what ^ ": stops early") stops_early (run < charged);
      for cap = 0 to total do
        let ctx = Omega.Ctx.create ~fuel:cap () in
        let got = Omega.decide ~ctx s in
        let want, spent =
          if cap < total then (Omega.Unknown "fuel", cap + 1)
          else (verdict, total)
        in
        if got <> want || Omega.Ctx.fuel_spent ctx <> spent then
          Alcotest.failf "%s, fuel %d: spent %d, want %d" what cap
            (Omega.Ctx.fuel_spent ctx) spent
      done)
    prepass_cases

(* --- budget soundness: three-valued verdicts never lie ---

   The fuel/deadline machinery must degrade, not corrupt: a generously
   budgeted query answers exactly what the unbudgeted solver answers, and a
   starved query may give up (Unknown) but may never flip a verdict. *)

let decide_exact ~seed sys =
  match Omega.decide ~ctx:(Omega.Ctx.create ()) sys with
  | Omega.Sat -> Omega.Sat
  | Omega.Unsat -> Omega.Unsat
  | Omega.Unknown r ->
    Alcotest.failf "unbudgeted solver gave up (%s) at seed %d" r seed

(* Under fuel 1, 5 and 20 the totals pin where each query gives up; they
   are those of commit 67c6685, computed on a checkout of it, like the wide
   coefficient totals above. *)
let test_budget_soundness_sampled () =
  let tight = List.map (fun f -> (f, Omega.Ctx.create ~fuel:f ())) [ 1; 5; 20 ] in
  for seed = 1 to 250 do
    let rng = Fuzzing.Rng.create seed in
    let dim = 2 + Fuzzing.Rng.int rng 3 in
    let sys = Fuzzing.Gen.system rng ~dim in
    let exact = decide_exact ~seed sys in
    (* generous fuel: must agree exactly *)
    (match Omega.decide ~ctx:(Omega.Ctx.create ~fuel:1_000_000 ()) sys with
    | Omega.Unknown r ->
      Alcotest.failf "generous budget gave up (%s) at seed %d" r seed
    | v ->
      if v <> exact then
        Alcotest.failf "generous budget flipped the verdict at seed %d" seed);
    (* tight fuel: Unknown "fuel" or exact agreement, never a flip *)
    List.iter
      (fun (fuel, ctx) ->
        match Omega.decide ~ctx sys with
        | Omega.Unknown reason ->
          Alcotest.(check string) "starved reason" "fuel" reason
        | v ->
          if v <> exact then
            Alcotest.failf "fuel %d flipped the verdict at seed %d" fuel seed)
      tight
  done;
  Alcotest.(check (list (list int))) "fuel, splinters, Unknown per cap"
    [ [ 475; 0; 225 ]; [ 1359; 0; 203 ]; [ 3817; 0; 92 ] ]
    (List.map
       (fun (_, ctx) ->
         [ Omega.Ctx.fuel_spent ctx; Omega.Ctx.splinters ctx;
           Omega.Ctx.unknowns ctx ])
       tight)

let test_budget_zero_fuel_always_unknown () =
  let sys = Fuzzing.Gen.system (Fuzzing.Rng.create 7) ~dim:3 in
  let ctx = Omega.Ctx.create ~fuel:0 () in
  (match Omega.decide ~ctx sys with
  | Omega.Unknown "fuel" -> ()
  | _ -> Alcotest.fail "zero fuel must answer Unknown \"fuel\"");
  Alcotest.(check int) "unknowns counted" 1 (Omega.Ctx.unknowns ctx);
  (* the conservative boolean collapse says "may be satisfiable" *)
  Alcotest.(check bool) "satisfiable collapses Unknown to true" true
    (Omega.satisfiable ~ctx sys)

(* A sampled system whose unbudgeted decision costs at least [min_fuel]
   work units, with that decision — found by scanning seeds, so the test
   stays generator-agnostic.  Used to guarantee the deadline poll (every
   64 units) actually fires. *)
let expensive_system ~min_fuel =
  let rec scan seed =
    if seed > 5000 then
      Alcotest.failf "no sampled system costs >= %d fuel" min_fuel
    else
      let rng = Fuzzing.Rng.create seed in
      let sys = Fuzzing.Gen.system rng ~dim:4 in
      let ctx = Omega.Ctx.create () in
      let v = Omega.decide ~ctx sys in
      if Omega.Ctx.fuel_spent ctx >= min_fuel then (sys, v) else scan (seed + 1)
  in
  scan 1

let test_budget_unknown_not_cached () =
  (* The daemon's sequence on its shared cached context: a request past
     its deadline gives up, then a later request decides the same system.
     The re-decision must be exact and agree with a fresh solver, which
     proves the Unknown was never stored in the memo table. *)
  let sys, exact = expensive_system ~min_fuel:128 in
  let ctx = Omega.Ctx.create ~cache:true () in
  (match Runner.with_deadline ~until:0.0 (fun () -> Omega.decide ~ctx sys) with
  | Omega.Unknown reason ->
    Alcotest.(check string) "gave up at the deadline" "deadline" reason
  | _ -> Alcotest.fail "expected the query past its deadline to give up");
  Alcotest.(check int) "Unknown not stored" 0 (Omega.Ctx.cache_size ctx);
  (match Omega.decide ~ctx sys with
  | Omega.Unknown r -> Alcotest.failf "re-decision gave up (%s)" r
  | v ->
    if v <> exact then Alcotest.fail "cached context flipped the verdict");
  Alcotest.(check int) "exact verdict stored" 1 (Omega.Ctx.cache_size ctx)

(* A task's [timeout_ms] reaches a query on a context that has no budget
   of its own: inside an attempt whose deadline has passed the query gives
   up, and the attempt comes back [Timed_out]. *)
let test_budget_attempt_deadline () =
  let sys, _ = expensive_system ~min_fuel:128 in
  let answered = ref None in
  let task () =
    Unix.sleepf 0.01;
    answered := Some (Omega.decide ~ctx:(Omega.Ctx.create ()) sys);
    Runner.check ()
  in
  (match Runner.map_outcomes ~timeout_ms:1 task [ () ] with
  | [ Runner.Timed_out ] -> ()
  | _ -> Alcotest.fail "the attempt past its deadline must time out");
  match !answered with
  | Some (Omega.Unknown reason) ->
    Alcotest.(check string) "gave up at the attempt's deadline" "deadline"
      reason
  | Some _ -> Alcotest.fail "the query answered exactly past its deadline"
  | None -> Alcotest.fail "the query never ran"

let test_budget_starve_after () =
  let sys = Fuzzing.Gen.system (Fuzzing.Rng.create 3) ~dim:3 in
  let exact = decide_exact ~seed:3 sys in
  let ctx = Omega.Ctx.create ~starve_after:1 () in
  (match Omega.decide ~ctx sys with
  | Omega.Unknown r -> Alcotest.failf "query 0 should be exact, gave up (%s)" r
  | v -> if v <> exact then Alcotest.fail "query 0 flipped the verdict");
  (match Omega.decide ~ctx sys with
  | Omega.Unknown "fuel" -> ()
  | _ -> Alcotest.fail "queries past starve_after must answer Unknown \"fuel\"");
  (* the index counts per context: a fresh one answers its query 0 exactly *)
  match Omega.decide ~ctx:(Omega.Ctx.create ~starve_after:1 ()) sys with
  | Omega.Unknown r -> Alcotest.failf "un-starved query gave up (%s)" r
  | v -> if v <> exact then Alcotest.fail "un-starved query flipped the verdict"

(* --- the native twin against the Bigint recursion ---

   [Omega.decide] runs a query on native int rows while every value stays
   within 2^30, and runs it again from its start on the Bigint recursion
   ([Omega.decide_exact], the reference) once one leaves that range.  So
   on every system the two must agree in verdict, fuel and splinters,
   budgeted or not.  Values are drawn around 0, small non-units (for
   inexact eliminations and splinters), 2^8, 2^11 and 2^15 (whose products
   pass 2^30 one or two eliminations in), 2^29 and 2^30 (the entry bound,
   on both sides). *)

let gen_near_bound =
  let open QCheck.Gen in
  let signed base = map2 (fun neg o -> let v = base + o in if neg then -v else v)
      bool (int_range (-2) 2) in
  frequency
    [ (6, int_range (-3) 3);
      (3, oneofl [ 2; 3; 5; -2; -3; -5; 7 ]);
      (2, signed (1 lsl 8));
      (4, signed (1 lsl 11));
      (1, signed (1 lsl 15));
      (1, signed (1 lsl 29));
      (1, signed (1 lsl 30)) ]

let gen_near_bound_system =
  let open QCheck.Gen in
  int_range 2 4 >>= fun dim ->
  (* a third of the systems keep to small values, whose inexact
     eliminations splinter without leaving the native range *)
  frequency [ (2, return gen_near_bound); (1, return (int_range (-7) 7)) ]
  >>= fun value ->
  let row =
    pair (frequency [ (4, return C.Ge); (1, return C.Eq) ])
      (pair
         (list_repeat dim (frequency [ (2, return 0); (3, value) ]))
         value)
  in
  (* a box keeps most systems' eliminations short *)
  let box =
    list_repeat dim (pair (int_range (-6) 2) (int_range 0 8))
  in
  (* thin strips [l <= a.x <= l + d] whose rational shadow holds points
     its integer one lacks, so eliminations splinter *)
  let strip =
    map3
      (fun coeffs l d ->
        [ C.ge (A.of_ints coeffs (-l));
          C.ge (A.neg (A.of_ints coeffs (-(l + d)))) ])
      (list_repeat dim (int_range (-13) 13))
      (int_range (-20) 40) (int_range 0 3)
  in
  map3
    (fun rows strips box ->
      let rows =
        List.map
          (fun (kind, (coeffs, c)) ->
            let a = A.of_ints coeffs c in
            if kind = C.Eq then C.eq a else C.ge a)
          rows
        @ List.concat strips
      in
      let box =
        List.concat
          (List.mapi
             (fun i (lo, w) ->
               [ C.ge_of (A.var dim i) (A.of_int dim lo);
                 C.le_of (A.var dim i) (A.of_int dim (lo + w)) ])
             box)
      in
      S.make (Array.init dim (fun i -> "x" ^ string_of_int i)) (rows @ box))
    (list_size (int_range 2 6) row)
    (frequency [ (2, return []); (1, list_size (int_range 1 2) strip) ])
    (frequency [ (1, box); (1, return []) ])

(* One query on each solver, each on a fresh context with [fuel]: the
   verdicts, fuel and splinters, or the first difference. *)
let native_agrees ?fuel sys =
  let run decide =
    let ctx = Omega.Ctx.create ?fuel () in
    let v = decide ~ctx sys in
    (v, Omega.Ctx.fuel_spent ctx, Omega.Ctx.splinters ctx)
  in
  run Omega.decide = run Omega.decide_exact

let native_splinters = ref 0 and native_unknowns = ref 0

let prop_native =
  let print s = Format.asprintf "%a" S.pp s in
  QCheck.Test.make ~count:2000 ~name:"native = exact on near-bound systems"
    (QCheck.make ~print gen_near_bound_system)
    (fun sys ->
      (* a generous cap bounds the few systems that splinter for long *)
      let ctx = Omega.Ctx.create ~fuel:20_000 () in
      (match Omega.decide_exact ~ctx sys with
      | Omega.Unknown _ -> incr native_unknowns
      | _ -> ());
      native_splinters := !native_splinters + Omega.Ctx.splinters ctx;
      List.for_all (fun fuel -> native_agrees ~fuel sys) [ 1; 5; 20; 20_000 ])

let test_native_property () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 34 |]) prop_native;
  if !native_splinters = 0 then Alcotest.fail "no system splintered"

(* x = 2^12 (y + z) has a unit coefficient, and substituting it leaves
   two rows with coefficients near 2^24 at the second level, within the
   native range; eliminating y there forms products near 2^48.  So the
   twin gives up only after the first level's pre-pass and substitution
   and the second level's pre-pass and elimination charge, and the query
   runs again on Bigint (Sat, 17 units).  Under every cap it must give up
   where the Bigint recursion does: the abandoned attempt's charges must
   not count. *)
let test_native_late_overflow () =
  let p12 = 1 lsl 12 in
  let sys =
    S.make names3
      [ C.eq (A.of_ints [ 1; -p12; -p12 ] 0);
        C.ge (A.of_ints [ p12; -3; 5 ] (-1));
        C.ge (A.of_ints [ -p12; 7; 11 ] 2) ]
  in
  let ctx = Omega.Ctx.create () in
  Alcotest.(check bool) "Sat" true (Omega.decide_exact ~ctx sys = Omega.Sat);
  Alcotest.(check int) "exact fuel" 17 (Omega.Ctx.fuel_spent ctx);
  for cap = 0 to 18 do
    if not (native_agrees ~fuel:cap sys) then
      Alcotest.failf "fuel %d: native and exact differ" cap
  done;
  Alcotest.(check bool) "unbudgeted" true (native_agrees sys)

let () =
  Alcotest.run "polyhedra"
    [ ( "affine",
        [ Alcotest.test_case "basics" `Quick test_affine_basics;
          Alcotest.test_case "subst" `Quick test_affine_subst;
          Alcotest.test_case "rename" `Quick test_affine_rename;
          Alcotest.test_case "pretty-print" `Quick test_affine_pp ] );
      ( "constr",
        [ Alcotest.test_case "normalize" `Quick test_constr_normalize;
          Alcotest.test_case "row arithmetic = per-coefficient Bigint" `Quick
            test_row_arithmetic;
          Alcotest.test_case "satisfied_by" `Quick test_constr_satisfied;
          Alcotest.test_case "dedupe = reference" `Quick
            test_dedupe_reference ] );
      ( "system",
        [ Alcotest.test_case "eval" `Quick test_system_eval ] );
      ( "fm",
        [ Alcotest.test_case "bounds_of" `Quick test_fm_bounds;
          Alcotest.test_case "eliminate" `Quick test_fm_eliminate;
          Alcotest.test_case "eliminate equality" `Quick test_fm_eliminate_equality;
          Alcotest.test_case "compress" `Quick test_fm_compress ] );
      ( "omega",
        [ Alcotest.test_case "basics" `Quick test_omega_basic;
          Alcotest.test_case "divisibility" `Quick test_omega_divisibility;
          Alcotest.test_case "dark shadow" `Quick test_omega_dark_shadow;
          Alcotest.test_case "coupled equality" `Quick test_omega_coupled;
          Alcotest.test_case "block constraints" `Quick test_omega_block_constraints;
          Alcotest.test_case "paper Sec 5.1 legality shape" `Quick
            test_omega_cholesky_legality_shape;
          Alcotest.test_case "implies" `Quick test_omega_implies;
          Alcotest.test_case "system digest pinned" `Quick
            test_system_digest_pinned;
          Alcotest.test_case "memo key splits like canonical_key" `Quick
            test_memo_key_splits_like_canonical_key ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_omega_exact; prop_fm_sound; prop_implies_respects_points ] );
      ( "sampled",
        [ Alcotest.test_case "Omega = enumeration on sampled systems" `Quick
            test_omega_vs_brute_sampled;
          Alcotest.test_case "FM projection keeps sampled points" `Quick
            test_fm_sound_sampled;
          Alcotest.test_case "implies honored by box points" `Quick
            test_omega_implies_vs_brute_sampled;
          Alcotest.test_case "wide coefficients = enumeration" `Quick
            test_omega_wide_coefficients ] );
      ( "pre-pass",
        [ Alcotest.test_case "pre-pass = plain sweep loop" `Quick
            test_prepass_property;
          Alcotest.test_case "hand-written systems, every fuel cap" `Quick
            test_prepass_cases ] );
      ( "native",
        [ Alcotest.test_case "native = exact on near-bound systems" `Quick
            test_native_property;
          Alcotest.test_case "overflow past the first level, every fuel cap"
            `Quick test_native_late_overflow ] );
      ( "budget",
        [ Alcotest.test_case "budgeted verdicts never lie (sampled)" `Quick
            test_budget_soundness_sampled;
          Alcotest.test_case "zero fuel gives up" `Quick
            test_budget_zero_fuel_always_unknown;
          Alcotest.test_case "Unknown is never cached" `Quick
            test_budget_unknown_not_cached;
          Alcotest.test_case "attempt deadline reaches the solver" `Quick
            test_budget_attempt_deadline;
          Alcotest.test_case "starve_after fault injection" `Quick
            test_budget_starve_after ] ) ]
