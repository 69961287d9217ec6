module Sjson = Qxm_json.Sjson

type severity = Error | Warning | Info

type loc = { file : string; line : int }

type t = {
  code : string;
  severity : severity;
  loc : loc option;
  message : string;
}

let make ?loc ~code ~severity message = { code; severity; loc; message }

let makef ?loc ~code ~severity fmt =
  Format.kasprintf (fun message -> make ?loc ~code ~severity message) fmt

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let errors ds = List.filter (fun d -> d.severity = Error) ds
let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let by_severity a b =
  match compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 -> compare a.code b.code
  | c -> c

let to_string d =
  let prefix =
    match d.loc with
    | Some { file; line } -> Printf.sprintf "%s:%d: " file line
    | None -> ""
  in
  Printf.sprintf "%s%s %s: %s" prefix (severity_name d.severity) d.code
    d.message

let to_json d =
  Sjson.Obj
    ([
       ("code", Sjson.Str d.code);
       ("severity", Sjson.Str (severity_name d.severity));
     ]
    @ (match d.loc with
      | Some { file; line } ->
          [ ("file", Sjson.Str file); ("line", Sjson.int line) ]
      | None -> [])
    @ [ ("message", Sjson.Str d.message) ])

let list_to_json ds =
  match ds with
  | [] -> "[]"
  | _ ->
      "[\n"
      ^ String.concat ",\n" (List.map (fun d -> Sjson.print (to_json d)) ds)
      ^ "\n]"

let pp fmt d = Format.pp_print_string fmt (to_string d)
