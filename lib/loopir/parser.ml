exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

(* ------------------------------------------------------------------ *)
(* Tokens                                                              *)
(* ------------------------------------------------------------------ *)

type tok =
  | Id of string
  | Int of int
  | Float of float
  | LP
  | RP
  | Comma
  | Plus
  | Minus
  | Star
  | Slash
  | Colon
  | Assign
  | Le
  | Lt
  | Ge
  | Gt
  | EqEq

let tok_to_string = function
  | Id s -> s
  | Int n -> string_of_int n
  | Float f -> string_of_float f
  | LP -> "(" | RP -> ")" | Comma -> "," | Plus -> "+" | Minus -> "-"
  | Star -> "*" | Slash -> "/" | Colon -> ":" | Assign -> "="
  | Le -> "<=" | Lt -> "<" | Ge -> ">=" | Gt -> ">" | EqEq -> "=="

let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_id_char c = is_id_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize lineno s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if is_id_start c then begin
      let j = ref !i in
      while !j < n && is_id_char s.[!j] do incr j done;
      toks := Id (String.sub s !i (!j - !i)) :: !toks;
      i := !j
    end
    else if is_digit c then begin
      let j = ref !i in
      while !j < n && is_digit s.[!j] do incr j done;
      let is_float =
        !j < n && s.[!j] = '.'
        (* avoid swallowing ".." or field access; digits must follow *)
        && !j + 1 < n
        && is_digit s.[!j + 1]
      in
      if is_float then begin
        incr j;
        while !j < n && is_digit s.[!j] do incr j done;
        (* exponent *)
        if !j < n && (s.[!j] = 'e' || s.[!j] = 'E') then begin
          incr j;
          if !j < n && (s.[!j] = '+' || s.[!j] = '-') then incr j;
          while !j < n && is_digit s.[!j] do incr j done
        end
      end;
      let lit = String.sub s !i (!j - !i) in
      let tok =
        if is_float then Option.map (fun f -> Float f) (float_of_string_opt lit)
        else Option.map (fun k -> Int k) (int_of_string_opt lit)
      in
      (match tok with
      | Some t -> toks := t :: !toks
      | None ->
        fail lineno
          (if is_float then Printf.sprintf "malformed float literal %s" lit
           else Printf.sprintf "integer literal %s out of range" lit));
      i := !j
    end
    else begin
      let two = if !i + 1 < n then String.sub s !i 2 else "" in
      let push t k = toks := t :: !toks; i := !i + k in
      match two with
      | "<=" -> push Le 2
      | ">=" -> push Ge 2
      | "==" -> push EqEq 2
      | _ -> begin
        match c with
        | '(' -> push LP 1
        | ')' -> push RP 1
        | ',' -> push Comma 1
        | '+' -> push Plus 1
        | '-' -> push Minus 1
        | '*' -> push Star 1
        | '/' -> push Slash 1
        | ':' -> push Colon 1
        | '=' -> push Assign 1
        | '<' -> push Lt 1
        | '>' -> push Gt 1
        | _ -> fail lineno (Printf.sprintf "unexpected character %c" c)
      end
    end
  done;
  List.rev !toks

(* A mutable cursor over one line's tokens. *)
type cursor = { mutable toks : tok list; line : int }

let peek c = match c.toks with [] -> None | t :: _ -> Some t

let next c =
  match c.toks with
  | [] -> fail c.line "unexpected end of line"
  | t :: tl ->
    c.toks <- tl;
    t

let expect c t =
  let got = next c in
  if got <> t then
    fail c.line
      (Printf.sprintf "expected %s, got %s" (tok_to_string t) (tok_to_string got))

let eat c t = match peek c with Some t' when t' = t -> ignore (next c); true | _ -> false

(* ------------------------------------------------------------------ *)
(* Integer (index/bound) expressions                                   *)
(* ------------------------------------------------------------------ *)

let rec iexpr c =
  let rec go acc =
    match peek c with
    | Some Plus ->
      ignore (next c);
      go (Expr.Add (acc, iterm c))
    | Some Minus ->
      ignore (next c);
      go (Expr.Sub (acc, iterm c))
    | _ -> acc
  in
  go (iterm c)

and iterm c =
  let as_const e =
    match Expr.simplify e with Expr.Const n -> Some n | _ -> None
  in
  let rec go acc =
    match peek c with
    | Some Star -> begin
      ignore (next c);
      let rhs = ifactor c in
      match (as_const acc, as_const rhs) with
      | Some k, Some j -> go (Expr.Const (k * j))
      | Some k, None -> go (Expr.Mul (k, rhs))
      | None, Some k -> go (Expr.Mul (k, acc))
      | None, None -> fail c.line "non-linear product"
    end
    | _ -> acc
  in
  go (ifactor c)

and ifactor c =
  match next c with
  | Int n -> Expr.Const n
  | Minus -> begin
    match ifactor c with
    | Expr.Const n -> Expr.Const (-n)
    | e -> Expr.Mul (-1, e)
  end
  | LP ->
    let e = iexpr c in
    expect c RP;
    e
  | Id ("min" | "max" as f) ->
    expect c LP;
    let args = ref [ iexpr c ] in
    while eat c Comma do
      args := iexpr c :: !args
    done;
    expect c RP;
    let args = List.rev !args in
    if f = "min" then Expr.min_list args else Expr.max_list args
  | Id ("floor" | "ceil" as f) ->
    expect c LP;
    let e = iexpr c in
    expect c Slash;
    let d = match next c with
      | Int 0 -> fail c.line ("zero divisor in " ^ f)
      | Int d -> d
      | t -> fail c.line ("expected divisor, got " ^ tok_to_string t)
    in
    expect c RP;
    if f = "floor" then Expr.FloorDiv (e, d) else Expr.CeilDiv (e, d)
  | Id name -> Expr.Var name
  | t -> fail c.line ("unexpected token in index expression: " ^ tok_to_string t)

(* ------------------------------------------------------------------ *)
(* Float expressions                                                   *)
(* ------------------------------------------------------------------ *)

let parse_ref c name =
  expect c LP;
  let args = ref [ iexpr c ] in
  while eat c Comma do
    args := iexpr c :: !args
  done;
  expect c RP;
  Fexpr.ref_ name (List.rev !args)

let rec fexpr c =
  let rec go acc =
    match peek c with
    | Some Plus ->
      ignore (next c);
      go (Fexpr.Bin (Fexpr.Fadd, acc, fterm c))
    | Some Minus ->
      ignore (next c);
      go (Fexpr.Bin (Fexpr.Fsub, acc, fterm c))
    | _ -> acc
  in
  go (fterm c)

and fterm c =
  let rec go acc =
    match peek c with
    | Some Star ->
      ignore (next c);
      go (Fexpr.Bin (Fexpr.Fmul, acc, ffactor c))
    | Some Slash ->
      ignore (next c);
      go (Fexpr.Bin (Fexpr.Fdiv, acc, ffactor c))
    | _ -> acc
  in
  go (ffactor c)

and ffactor c =
  match next c with
  | Float x -> Fexpr.Const x
  | Int n -> Fexpr.Const (float_of_int n)
  | Minus -> Fexpr.Neg (ffactor c)
  | LP ->
    let e = fexpr c in
    expect c RP;
    e
  | Id "sqrt" ->
    expect c LP;
    let e = fexpr c in
    expect c RP;
    Fexpr.Sqrt e
  | Id name -> Fexpr.Ref (parse_ref c name)
  | t -> fail c.line ("unexpected token in expression: " ^ tok_to_string t)

(* ------------------------------------------------------------------ *)
(* Guards                                                              *)
(* ------------------------------------------------------------------ *)

let guard c =
  let lhs = iexpr c in
  let rel =
    match next c with
    | Le -> Ast.Le
    | Lt -> Ast.Lt
    | Ge -> Ast.Ge
    | Gt -> Ast.Gt
    | EqEq -> Ast.Eq
    | t -> fail c.line ("expected comparison, got " ^ tok_to_string t)
  in
  let rhs = iexpr c in
  Ast.guard lhs rel rhs

let guards c =
  let gs = ref [ guard c ] in
  let rec go () =
    match peek c with
    | Some (Id "and") ->
      ignore (next c);
      gs := guard c :: !gs;
      go ()
    | _ -> ()
  in
  go ();
  List.rev !gs

(* ------------------------------------------------------------------ *)
(* Lines and structure                                                 *)
(* ------------------------------------------------------------------ *)

type line =
  | Lheader of string * string list
  | Ldecl of Ast.array_decl
  | Ldo of string * Expr.t * Expr.t
  | Lend_do
  | Lif of Ast.guard list
  | Lend_if
  | Lstmt of string * Fexpr.ref_ * Fexpr.t

let classify lineno raw =
  let s = String.trim raw in
  if String.length s = 0 then None
  else if s.[0] = '!' then begin
    (* ! name (params: A, B) *)
    let body = String.trim (String.sub s 1 (String.length s - 1)) in
    match String.index_opt body '(' with
    | None -> Some (Lheader (body, []))
    | Some i ->
      let name = String.trim (String.sub body 0 i) in
      let rest = String.sub body (i + 1) (String.length body - i - 1) in
      let rest =
        match String.index_opt rest ')' with
        | Some j -> String.sub rest 0 j
        | None -> fail lineno "unterminated header"
      in
      let params =
        match String.index_opt rest ':' with
        | None -> []
        | Some j ->
          String.sub rest (j + 1) (String.length rest - j - 1)
          |> String.split_on_char ','
          |> List.map String.trim
          |> List.filter (fun x -> x <> "")
      in
      Some (Lheader (name, params))
  end
  else begin
    let c = { toks = tokenize lineno s; line = lineno } in
    let l =
      match next c with
      | Id "real" -> begin
        match next c with
        | Id name ->
          let r = parse_ref c name in
          Ldecl { Ast.a_name = name; extents = r.Fexpr.idx }
        | t -> fail lineno ("expected array name, got " ^ tok_to_string t)
      end
      | Id "do" -> begin
        match next c with
        | Id var ->
          expect c Assign;
          let lo = iexpr c in
          expect c Comma;
          let hi = iexpr c in
          Ldo (var, lo, hi)
        | t -> fail lineno ("expected loop variable, got " ^ tok_to_string t)
      end
      | Id "end" -> begin
        match next c with
        | Id "do" -> Lend_do
        | Id "if" -> Lend_if
        | t -> fail lineno ("expected do/if after end, got " ^ tok_to_string t)
      end
      | Id "if" ->
        expect c LP;
        let gs = guards c in
        expect c RP;
        (match next c with
         | Id "then" -> Lif gs
         | t -> fail lineno ("expected then, got " ^ tok_to_string t))
      | Id label -> begin
        match next c with
        | Colon -> begin
          match next c with
          | Id arr ->
            let lhs = parse_ref c arr in
            expect c Assign;
            Lstmt (label, lhs, fexpr c)
          | t -> fail lineno ("expected array reference, got " ^ tok_to_string t)
        end
        | t -> fail lineno ("expected ':', got " ^ tok_to_string t)
      end
      | t -> fail lineno ("unexpected line start: " ^ tok_to_string t)
    in
    (* every line's syntax ends at the end of the line: text after it
       would otherwise be dropped *)
    if c.toks <> [] then
      fail lineno
        ("trailing tokens: " ^ String.concat " " (List.map tok_to_string c.toks));
    Some l
  end

(* A name in a loop bound, guard or subscript must be an enclosing loop
   variable or a header parameter, a name in an array extent must be a
   header parameter, and a reference must name a declared array with as
   many subscripts as the array has extents.  Each check runs on the line
   that holds the name or the reference, with the parameters and arrays
   declared on the lines above it. *)
let check_names lineno ~scope ~params e =
  List.iter
    (fun v ->
      if not (List.mem v scope || List.mem v params) then
        fail lineno
          ("name " ^ v
         ^ " is neither an enclosing loop variable nor a parameter"))
    (Expr.vars e)

let check_ref lineno ~scope ~params ~arrays (r : Fexpr.ref_) =
  let declared (d : Ast.array_decl) = String.equal d.a_name r.array in
  (match List.find_opt declared arrays with
  | None -> fail lineno ("array " ^ r.array ^ " is not declared")
  | Some d ->
    let rank = List.length d.extents and n = List.length r.idx in
    if n <> rank then
      fail lineno
        (Printf.sprintf
           "array %s has rank %d but is referenced with %d subscripts" r.array
           rank n));
  List.iter (check_names lineno ~scope ~params) r.idx

let program text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i raw -> (i + 1, raw))
    |> List.filter_map (fun (i, raw) ->
           Option.map (fun l -> (i, l)) (classify i raw))
  in
  let name = ref "program" and params = ref [] and arrays = ref [] in
  let sid = ref 0 in
  (* parse a block until one of the terminators; return (nodes, rest).
     [scope] holds the enclosing loop variables. *)
  let rec block scope lines terminators =
    match lines with
    | [] ->
      if terminators = [] then ([], [])
      else fail 0 "unexpected end of input (missing end do/end if)"
    | (lineno, l) :: rest -> begin
      let names = check_names lineno ~scope ~params:!params in
      match l with
      | Lend_do | Lend_if ->
        if List.mem l terminators then ([], lines)
        else fail lineno "mismatched end"
      | Lheader (n, ps) ->
        name := n;
        params := ps;
        block scope rest terminators
      | Ldecl d ->
        List.iter (check_names lineno ~scope:[] ~params:!params) d.Ast.extents;
        arrays := d :: !arrays;
        block scope rest terminators
      | Ldo (var, lo, hi) ->
        names lo;
        names hi;
        let body, rest = block (var :: scope) rest [ Lend_do ] in
        let rest = match rest with _ :: r -> r | [] -> [] in
        let nodes, rest = block scope rest terminators in
        (Ast.Loop { Ast.var; lo; hi; body } :: nodes, rest)
      | Lif gs ->
        List.iter (fun (g : Ast.guard) -> names g.g_lhs; names g.g_rhs) gs;
        let body, rest = block scope rest [ Lend_if ] in
        let rest = match rest with _ :: r -> r | [] -> [] in
        let nodes, rest = block scope rest terminators in
        (Ast.If (gs, body) :: nodes, rest)
      | Lstmt (label, lhs, rhs) ->
        List.iter
          (check_ref lineno ~scope ~params:!params ~arrays:!arrays)
          (lhs :: Fexpr.reads rhs);
        let id = !sid in
        incr sid;
        let nodes, rest = block scope rest terminators in
        (Ast.Stmt { Ast.id; label; lhs; rhs } :: nodes, rest)
    end
  in
  let body, rest = block [] lines [] in
  (match rest with
   | [] -> ()
   | (lineno, _) :: _ -> fail lineno "unbalanced end");
  { Ast.p_name = !name;
    params = !params;
    arrays = List.rev !arrays;
    body }

let roundtrip p = program (Ast.program_to_string p)
