(* Shared flag parsing and input-file reading for the repo's executables
   (shacklec, fuzz, bench, shackled).

   Each executable used to hand-roll its own parser, and the common flags
   (--domains, --json, --quick, --seed) had drifted toward three spellings
   of the same semantics.  This module is deliberately tiny: a [spec] is a
   flag name plus an arity plus a closure that writes into a ref, and
   [parse] folds the argument list over the specs.  No terminal games, no
   auto-generated man pages — just one place where "--domains D" means the
   same thing everywhere. *)

type spec = {
  s_flag : string;
  s_docv : string; (* "" for bare flags *)
  s_doc : string;
  s_arity : int; (* values consumed after the flag: 0, 1 or 2 *)
  s_apply : string list -> (unit, string) result;
}

(* ------------------------------------------------------------------ *)
(* Spec constructors                                                   *)
(* ------------------------------------------------------------------ *)

let flag s_flag ~doc cell =
  { s_flag;
    s_docv = "";
    s_doc = doc;
    s_arity = 0;
    s_apply =
      (fun _ ->
        cell := true;
        Ok ()) }

let arg1 s_flag ~docv ~doc apply =
  { s_flag;
    s_docv = docv;
    s_doc = doc;
    s_arity = 1;
    s_apply = (function [ v ] -> apply v | _ -> assert false) }

let arg2 s_flag ~docv ~doc apply =
  { s_flag;
    s_docv = docv;
    s_doc = doc;
    s_arity = 2;
    s_apply = (function [ a; b ] -> apply a b | _ -> assert false) }

let pos_int_of flag v =
  match int_of_string_opt v with
  | Some n when n > 0 -> Ok n
  | _ -> Error (Printf.sprintf "%s expects a positive integer, got %S" flag v)

let int name ~docv ~doc cell =
  arg1 name ~docv ~doc (fun v ->
      Result.map (fun n -> cell := n) (pos_int_of name v))

let int_list name ~docv ~doc cell =
  arg1 name ~docv ~doc (fun v ->
      Result.map (fun n -> cell := !cell @ [ n ]) (pos_int_of name v))

let int_opt name ~docv ~doc cell =
  arg1 name ~docv ~doc (fun v ->
      Result.map (fun n -> cell := Some n) (pos_int_of name v))

let string_opt name ~docv ~doc cell =
  arg1 name ~docv ~doc (fun v ->
      cell := Some v;
      Ok ())

let string_list name ~docv ~doc cell =
  arg1 name ~docv ~doc (fun v ->
      cell := !cell @ [ v ];
      Ok ())

let string_pair_opt name ~docv ~doc cell =
  arg2 name ~docv ~doc (fun a b ->
      cell := Some (a, b);
      Ok ())

let unknown_choice name alts v =
  Error
    (Printf.sprintf "%s expects one of %s, got %S" name
       (String.concat "|" (List.map fst alts))
       v)

let choice_list name ~docv ~doc alts cell =
  arg1 name ~docv ~doc (fun v ->
      match List.assoc_opt v alts with
      | Some x ->
        cell := !cell @ [ x ];
        Ok ()
      | None -> unknown_choice name alts v)

(* ------------------------------------------------------------------ *)
(* The canonical shared flags                                          *)
(* ------------------------------------------------------------------ *)

let quick cell =
  flag "--quick" ~doc:"smaller problem sizes / fewer cases (CI smoke mode)"
    cell

(* The help states the cell's value when the specs are built, which is
   the caller's default. *)
let domains cell =
  int "--domains" ~docv:"D"
    ~doc:
      (Printf.sprintf
         "fan work over D domains (default %d; results are independent of D)"
         !cell)
    cell

let json cell =
  string_opt "--json" ~docv:"FILE"
    ~doc:"write a machine-readable report to FILE" cell

let seed cell =
  int "--seed" ~docv:"K"
    ~doc:"first seed (default 1; each seed is fully deterministic)" cell

let seeds cell =
  int "--seeds" ~docv:"N" ~doc:"number of consecutive seeds to run" cell

(* The resource-budget pair is spelled once, here, so "--timeout-ms MS" and
   "--fuel F" mean exactly the same thing in shacklec, fuzz and shackled.
   Each command passes the values to the solver contexts it creates;
   bench takes neither, because a query that gives up would change the
   rows its golden pins. *)

let timeout_ms cell =
  int_opt "--timeout-ms" ~docv:"MS"
    ~doc:
      "wall-clock budget: solver queries give up (unknown) past the \
       deadline, supervised tasks time out (default: unlimited)"
    cell

let budget_ms cell =
  int_opt "--budget-ms" ~docv:"MS"
    ~doc:
      "end-to-end deadline shipped with daemon requests (--connect): the \
       server sheds or abandons the request past the deadline and answers \
       deadline_exceeded instead of stale results (default: none)"
    cell

let fuel cell =
  int_opt "--fuel" ~docv:"F"
    ~doc:
      "solver fuel per query; an exhausted query reports unknown, treated \
       conservatively as illegal (default: unlimited)"
    cell

(* The daemon addressing pair is spelled once, here, so "--socket PATH"
   and "--cache-dir DIR" mean the same thing in shackled, shacklec and
   bench. *)

let default_socket = "/tmp/shackled.sock"

let socket cell =
  arg1 "--socket" ~docv:"PATH"
    ~doc:
      (Printf.sprintf "Unix domain socket of the shackled daemon (default %s)"
         default_socket)
    (fun v ->
      cell := v;
      Ok ())

let cache_dir cell =
  string_opt "--cache-dir" ~docv:"DIR"
    ~doc:
      "directory of the persistent legality cache (created if missing; \
       default: no disk cache)"
    cell

let connect cell =
  string_opt "--connect" ~docv:"PATH"
    ~doc:"send the request to a running shackled daemon at this socket" cell

(* ------------------------------------------------------------------ *)
(* Input files                                                         *)
(* ------------------------------------------------------------------ *)

(* Every input file a user names (a program, a report to validate, a
   replay trace) is read through here, so a missing path, a directory or
   an unreadable file ends in one "PROG: FILE: reason" line and exit
   status 1, never an exception.  The reason omits the path, which the
   caller prints. *)
let read_file path =
  let without_path msg =
    let prefix = path ^ ": " in
    if String.starts_with ~prefix msg then
      String.sub msg (String.length prefix)
        (String.length msg - String.length prefix)
    else msg
  in
  match
    if Sys.is_directory path then Error "Is a directory"
    else Ok (In_channel.with_open_bin path In_channel.input_all)
  with
  | result -> result
  | exception Sys_error msg -> Error (without_path msg)

(* ------------------------------------------------------------------ *)
(* Usage text and parsing                                              *)
(* ------------------------------------------------------------------ *)

let usage ~prog ?positional ~specs () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "usage: %s%s [options]\n" prog
       (match positional with
       | Some (docv, _) -> " " ^ docv
       | None -> ""));
  List.iter
    (fun s ->
      let lhs =
        if String.equal s.s_docv "" then s.s_flag
        else s.s_flag ^ " " ^ s.s_docv
      in
      Buffer.add_string buf (Printf.sprintf "  %-22s %s\n" lhs s.s_doc))
    specs;
  Buffer.add_string buf (Printf.sprintf "  %-22s %s\n" "--help" "this message");
  Buffer.contents buf

let rec take_values k acc rest =
  if k = 0 then Some (List.rev acc, rest)
  else
    match rest with
    | [] -> None
    | v :: r -> take_values (k - 1) (v :: acc) r

let parse ~prog ?positional ~specs args =
  let rec go = function
    | [] -> Ok ()
    | ("--help" | "-h") :: _ ->
      print_string (usage ~prog ?positional ~specs ());
      exit 0
    | a :: rest when String.length a >= 2 && String.equal (String.sub a 0 2) "--"
      -> begin
      match List.find_opt (fun s -> String.equal s.s_flag a) specs with
      | None -> Error (Printf.sprintf "unknown option %s" a)
      | Some s -> begin
        match take_values s.s_arity [] rest with
        | None ->
          Error
            (Printf.sprintf "%s expects %d value%s" a s.s_arity
               (if s.s_arity = 1 then "" else "s"))
        | Some (vs, rest) -> begin
          match s.s_apply vs with Ok () -> go rest | Error _ as e -> e
        end
      end
    end
    | a :: rest -> begin
      match positional with
      | None -> Error (Printf.sprintf "unexpected argument %S" a)
      | Some (_, apply) -> begin
        match apply a with Ok () -> go rest | Error _ as e -> e
      end
    end
  in
  go args

let run ~prog ?positional ~specs args k =
  match parse ~prog ?positional ~specs args with
  | Ok () -> k ()
  | Error msg ->
    Printf.eprintf "%s: %s (try --help)\n" prog msg;
    2

(* ------------------------------------------------------------------ *)
(* Subcommand dispatch                                                 *)
(* ------------------------------------------------------------------ *)

type cmd = { c_name : string; c_doc : string; c_run : string list -> int }

let cmd c_name ~doc c_run = { c_name; c_doc = doc; c_run }

let command_list prog doc cmds =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s: %s\n\ncommands:\n" prog doc);
  List.iter
    (fun c -> Buffer.add_string buf (Printf.sprintf "  %-10s %s\n" c.c_name c.c_doc))
    cmds;
  Buffer.add_string buf
    (Printf.sprintf "\nrun '%s COMMAND --help' for the command's options\n" prog);
  Buffer.contents buf

let dispatch ~prog ~doc ~version cmds argv =
  match Array.to_list argv with
  | _ :: name :: rest -> begin
    match name with
    | "--version" ->
      print_endline version;
      0
    | "--help" | "-h" ->
      print_string (command_list prog doc cmds);
      0
    | _ -> begin
      match List.find_opt (fun c -> String.equal c.c_name name) cmds with
      | Some c -> c.c_run rest
      | None ->
        Printf.eprintf "%s: unknown command %S\n\n%s" prog name
          (command_list prog doc cmds);
        2
    end
  end
  | _ ->
    print_string (command_list prog doc cmds);
    2
