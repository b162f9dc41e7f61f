(* Unit and property tests for the bignum substrate.  Properties compare
   against native [int] arithmetic on safe ranges and check algebraic laws on
   values far beyond 63 bits. *)

module B = Bigint

let bi = B.of_int

let check_b = Alcotest.testable B.pp B.equal

let test_of_to_int () =
  List.iter
    (fun n -> Alcotest.(check int) (string_of_int n) n (B.to_int_exn (bi n)))
    [ 0; 1; -1; 42; -42; 32767; 32768; -32768; 1_000_000_007; max_int;
      min_int; max_int - 1; min_int + 1 ]

let test_to_string () =
  List.iter
    (fun (s, v) -> Alcotest.(check string) s s (B.to_string v))
    [ ("0", B.zero); ("1", B.one); ("-1", B.minus_one);
      ("123456789123456789", B.of_string "123456789123456789");
      ("-1000000000000000000000000", B.of_string "-1000000000000000000000000");
      ("2305843009213693952", bi (max_int / 2 + 1)) ]

let test_roundtrip_string () =
  let s = "123456789012345678901234567890123456789" in
  Alcotest.(check string) "roundtrip" s B.(to_string (of_string s));
  Alcotest.(check string) "neg roundtrip" ("-" ^ s)
    B.(to_string (of_string ("-" ^ s)))

let test_addition_carries () =
  let big = B.of_string "99999999999999999999999999999999" in
  Alcotest.check check_b "big+1"
    (B.of_string "100000000000000000000000000000000")
    (B.add big B.one);
  Alcotest.check check_b "1+big"
    (B.of_string "100000000000000000000000000000000")
    (B.add B.one big)

let test_mul_identity () =
  let big = B.of_string "123456789012345678901234567890" in
  Alcotest.check check_b "x*1" big (B.mul big B.one);
  Alcotest.check check_b "x*0" B.zero (B.mul big B.zero);
  Alcotest.check check_b "x*-1" (B.neg big) (B.mul big B.minus_one)

let test_mul_known () =
  Alcotest.check check_b "squaring"
    (B.of_string "15241578753238836750495351562536198787501905199875019052100")
    (let x = B.of_string "123456789012345678901234567890" in
     B.mul x x)

let test_div_rem_known () =
  let a = B.of_string "10000000000000000000000000000000000000001" in
  let b = B.of_string "314159265358979" in
  let q, r = B.div_rem a b in
  Alcotest.check check_b "reconstruct" a B.(add (mul q b) r);
  Alcotest.(check bool) "remainder small" true
    (B.compare (B.abs r) (B.abs b) < 0)

let test_fdiv_signs () =
  let cases =
    [ (7, 2, 3); (-7, 2, -4); (7, -2, -4); (-7, -2, 3); (6, 3, 2); (-6, 3, -2) ]
  in
  List.iter
    (fun (a, b, expect) ->
      Alcotest.check check_b
        (Printf.sprintf "fdiv %d %d" a b)
        (bi expect)
        (B.fdiv (bi a) (bi b)))
    cases

let test_cdiv_signs () =
  let cases =
    [ (7, 2, 4); (-7, 2, -3); (7, -2, -3); (-7, -2, 4); (6, 3, 2) ]
  in
  List.iter
    (fun (a, b, expect) ->
      Alcotest.check check_b
        (Printf.sprintf "cdiv %d %d" a b)
        (bi expect)
        (B.cdiv (bi a) (bi b)))
    cases

let test_gcd () =
  Alcotest.check check_b "gcd 12 18" (bi 6) (B.gcd (bi 12) (bi 18));
  Alcotest.check check_b "gcd 0 5" (bi 5) (B.gcd B.zero (bi 5));
  Alcotest.check check_b "gcd 0 0" B.zero (B.gcd B.zero B.zero);
  Alcotest.check check_b "gcd neg" (bi 4) (B.gcd (bi (-12)) (bi 8));
  let a = B.of_string "123456789012345678901234567890" in
  Alcotest.check check_b "gcd self" (B.abs a) (B.gcd a (B.neg a))

let test_lcm () =
  Alcotest.check check_b "lcm 4 6" (bi 12) (B.lcm (bi 4) (bi 6));
  Alcotest.check check_b "lcm 0 5" B.zero (B.lcm B.zero (bi 5))

let test_pow () =
  Alcotest.check check_b "2^100"
    (B.of_string "1267650600228229401496703205376")
    (B.pow B.two 100);
  Alcotest.check check_b "x^0" B.one (B.pow (bi 999) 0);
  Alcotest.check check_b "(-3)^3" (bi (-27)) (B.pow (bi (-3)) 3)

let test_compare_order () =
  let sorted =
    [ B.of_string "-100000000000000000000"; bi (-5); B.zero; bi 5;
      B.of_string "100000000000000000000" ]
  in
  List.iteri
    (fun i x ->
      List.iteri
        (fun j y ->
          Alcotest.(check int)
            (Printf.sprintf "cmp %d %d" i j)
            (Stdlib.compare i j)
            (B.compare x y))
        sorted)
    sorted

let test_to_int_bounds () =
  Alcotest.(check (option int)) "max_int" (Some max_int)
    (B.to_int_opt (bi max_int));
  Alcotest.(check (option int)) "min_int" (Some min_int)
    (B.to_int_opt (bi min_int));
  Alcotest.(check (option int)) "max_int+1" None
    (B.to_int_opt B.(add (bi max_int) one));
  Alcotest.(check (option int)) "min_int-1" None
    (B.to_int_opt B.(sub (bi min_int) one))

(* Results at the edge of the immediate range, against decimal literals. *)
let test_boundary_literals () =
  List.iter
    (fun (name, expect, v) ->
      Alcotest.(check string) name expect (B.to_string v);
      Alcotest.(check bool) (name ^ " structural") true
        (Stdlib.( = ) v (B.of_string expect)))
    [ ("max_int + 1", "4611686018427387904", B.add (bi max_int) B.one);
      ("-min_int", "4611686018427387904", B.neg (bi min_int));
      ("max_int * max_int", "21267647932558653957237540927630737409",
       B.mul (bi max_int) (bi max_int));
      ("+5", "5", B.of_string "+5") ]

(* Property tests. *)

let mid_int = QCheck.int_range (-1_000_000) 1_000_000

let arb_big =
  (* Pairs of ints combined multiplicatively give values beyond 63 bits. *)
  QCheck.map
    (fun (a, b, c) -> B.add (B.mul (bi a) (bi b)) (bi c))
    QCheck.(triple int int int)

let prop_add_matches_int =
  QCheck.Test.make ~count:1000 ~name:"add matches native int"
    QCheck.(pair mid_int mid_int)
    (fun (a, b) -> B.to_int_exn (B.add (bi a) (bi b)) = a + b)

let prop_mul_matches_int =
  QCheck.Test.make ~count:1000 ~name:"mul matches native int"
    QCheck.(pair mid_int mid_int)
    (fun (a, b) -> B.to_int_exn (B.mul (bi a) (bi b)) = a * b)

let prop_div_rem_reconstruct =
  QCheck.Test.make ~count:1000 ~name:"div_rem reconstructs"
    QCheck.(pair arb_big arb_big)
    (fun (a, b) ->
      QCheck.assume (not (B.is_zero b));
      let q, r = B.div_rem a b in
      B.equal a (B.add (B.mul q b) r) && B.compare (B.abs r) (B.abs b) < 0)

let prop_fdiv_floor =
  QCheck.Test.make ~count:1000 ~name:"fdiv is floor"
    QCheck.(pair mid_int (int_range 1 10000))
    (fun (a, b) ->
      let q = B.to_int_exn (B.fdiv (bi a) (bi b)) in
      (q * b <= a) && ((q + 1) * b > a))

let prop_frem_sign =
  QCheck.Test.make ~count:1000 ~name:"frem has divisor sign"
    QCheck.(pair arb_big arb_big)
    (fun (a, b) ->
      QCheck.assume (not (B.is_zero b));
      let r = B.frem a b in
      B.is_zero r || B.sign r = B.sign b)

let prop_cdiv_vs_fdiv =
  QCheck.Test.make ~count:1000 ~name:"cdiv a b = -fdiv (-a) b"
    QCheck.(pair arb_big arb_big)
    (fun (a, b) ->
      QCheck.assume (not (B.is_zero b));
      B.equal (B.cdiv a b) (B.neg (B.fdiv (B.neg a) b)))

let prop_gcd_divides =
  QCheck.Test.make ~count:500 ~name:"gcd divides both"
    QCheck.(pair arb_big arb_big)
    (fun (a, b) ->
      let g = B.gcd a b in
      QCheck.assume (not (B.is_zero g));
      B.is_zero (B.frem a g) && B.is_zero (B.frem b g))

let prop_string_roundtrip =
  QCheck.Test.make ~count:500 ~name:"string roundtrip"
    arb_big
    (fun a -> B.equal a (B.of_string (B.to_string a)))

let prop_ring_laws =
  QCheck.Test.make ~count:500 ~name:"distributivity on large values"
    QCheck.(triple arb_big arb_big arb_big)
    (fun (a, b, c) ->
      B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))

let prop_compare_antisym =
  QCheck.Test.make ~count:500 ~name:"compare antisymmetric"
    QCheck.(pair arb_big arb_big)
    (fun (a, b) -> B.compare a b = -B.compare b a)

(* Operands near +-max_int, +-2^30, +-2^31 and min_int.
   Each operation must agree with the same operation on operands offset or
   scaled by 2^70, which runs the digit code, both numerically and
   structurally: one representation per value is what lets polymorphic
   equality and [Hashtbl.hash] stand in for [equal] and [hash]. *)

let arb_boundary =
  QCheck.make ~print:B.to_string
    QCheck.Gen.(
      map2
        (fun c d -> B.add (bi c) (bi d))
        (oneofl
           [ max_int; -max_int; 1 lsl 30; -(1 lsl 30); 1 lsl 31; -(1 lsl 31);
             min_int; 0 ])
        (int_range (-3) 3))

let w = B.pow B.two 70

let same direct via =
  B.equal direct via
  && Stdlib.( = ) direct via
  && Hashtbl.hash direct = Hashtbl.hash via

let prop_boundary name ?(nonzero = false) f =
  QCheck.Test.make ~count:1000 ~name:("digit path agrees: " ^ name)
    QCheck.(pair arb_boundary arb_boundary)
    (fun (a, b) ->
      QCheck.assume ((not nonzero) || not (B.is_zero b));
      f a b)

let scaled op a b = op (B.mul a w) (B.mul b w)

let boundary_props =
  [ prop_boundary "add" (fun a b ->
        same (B.add a b) B.(sub (add (add a w) b) w));
    prop_boundary "sub" (fun a b ->
        same (B.sub a b) B.(sub (sub (add a w) b) w));
    prop_boundary "mul" (fun a b ->
        same (B.mul a b) (B.divexact (B.mul (B.mul a w) b) w));
    prop_boundary "div_rem" ~nonzero:true (fun a b ->
        let q, r = B.div_rem a b and q', r' = scaled B.div_rem a b in
        same q q' && same r (B.divexact r' w));
    prop_boundary "fdiv" ~nonzero:true (fun a b ->
        same (B.fdiv a b) (scaled B.fdiv a b));
    prop_boundary "cdiv" ~nonzero:true (fun a b ->
        same (B.cdiv a b) (scaled B.cdiv a b));
    prop_boundary "frem" ~nonzero:true (fun a b ->
        same (B.frem a b) (B.divexact (scaled B.frem a b) w));
    prop_boundary "gcd" (fun a b ->
        same (B.gcd a b) (B.divexact (scaled B.gcd a b) w)) ]

let () =
  Alcotest.run "bigint"
    [ ( "unit",
        [ Alcotest.test_case "of_int/to_int roundtrip" `Quick test_of_to_int;
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "string roundtrip" `Quick test_roundtrip_string;
          Alcotest.test_case "addition carries" `Quick test_addition_carries;
          Alcotest.test_case "mul identities" `Quick test_mul_identity;
          Alcotest.test_case "mul known value" `Quick test_mul_known;
          Alcotest.test_case "div_rem known value" `Quick test_div_rem_known;
          Alcotest.test_case "fdiv signs" `Quick test_fdiv_signs;
          Alcotest.test_case "cdiv signs" `Quick test_cdiv_signs;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "lcm" `Quick test_lcm;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "total order" `Quick test_compare_order;
          Alcotest.test_case "to_int bounds" `Quick test_to_int_bounds;
          Alcotest.test_case "boundary literals" `Quick test_boundary_literals ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ prop_add_matches_int; prop_mul_matches_int;
            prop_div_rem_reconstruct; prop_fdiv_floor; prop_frem_sign;
            prop_cdiv_vs_fdiv; prop_gcd_divides; prop_string_roundtrip;
            prop_ring_laws; prop_compare_antisym ] );
      ("boundary", List.map QCheck_alcotest.to_alcotest boundary_props) ]
