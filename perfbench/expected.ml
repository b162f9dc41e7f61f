(* Committed expected tables, one text file per workload under
   perfbench/expected/: a line per key, [key field=value ...].  The
   benchmark compares every op's output and work counters against them;
   [--regen] rewrites them from the current code (after cross-checking
   verdicts against brute force, see the workloads). *)

let dir = Filename.concat "perfbench" "expected"
let path name = Filename.concat dir (name ^ ".txt")

type t = (string, (string * string) list) Hashtbl.t

let load name : t =
  let tbl = Hashtbl.create 64 in
  let ic = open_in_bin (path name) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          let line = String.trim (input_line ic) in
          if line <> "" && line.[0] <> '#' then
            match Bench.words line with
            | key :: fields ->
              let kv f =
                match String.index_opt f '=' with
                | Some i ->
                  (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
                | None -> failwith ("expected table " ^ name ^ ": bad field " ^ f)
              in
              Hashtbl.replace tbl key (List.map kv fields)
            | [] -> ()
        done
      with End_of_file -> ());
  tbl

let save name ~header rows =
  Bench.mkdir_p dir;
  let oc = open_out_bin (path name) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun h -> Printf.fprintf oc "# %s\n" h) header;
      List.iter
        (fun (key, fields) ->
          Printf.fprintf oc "%s %s\n" key
            (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fields)))
        rows)

(* Compare an op's [got] fields with the table's row for [key]; [None]
   when they agree. *)
let diff (tbl : t) ~what ~key got =
  match Hashtbl.find_opt tbl key with
  | None -> Some (Printf.sprintf "%s %s: no expected row" what key)
  | Some want ->
    List.find_map
      (fun (k, v) ->
        match List.assoc_opt k want with
        | Some w when String.equal w v -> None
        | w ->
          Some
            (Bench.mismatch ~what ~key:(key ^ "." ^ k)
               ~expected:(Option.value w ~default:"(none)")
               ~got:v))
      got

let check tbl ~what ~key got =
  match diff tbl ~what ~key got with None -> Ok () | Some m -> Error m

(* Floats are compared through their exact hexadecimal rendering. *)
let float x = Printf.sprintf "%h" x
let int = string_of_int

(* Values are space-free tokens; labels with spaces are stored with '_'. *)
let text s = String.map (fun c -> if c = ' ' then '_' else c) s
