(** Shared diagnostics core for the lint layer.

    Every analyzer ({!Cnf_lint}, {!Circuit_lint}, {!Solver_lint}) reports
    findings as values of {!t}: a stable code (["QL-E004"]), a severity, an
    optional source location and a human-readable message.  Renderers for
    compiler-style text and line-oriented JSON live here so the CLI and
    the test suite agree on the output format.  The full code catalogue is
    documented in [doc/LINT.md]. *)

type severity = Error | Warning | Info

type loc = { file : string; line : int }

type t = {
  code : string;  (** stable identifier, e.g. ["QL-E004"] *)
  severity : severity;
  loc : loc option;  (** source position when one exists (QASM input) *)
  message : string;
}

val make : ?loc:loc -> code:string -> severity:severity -> string -> t

val makef :
  ?loc:loc ->
  code:string ->
  severity:severity ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** [makef ~code ~severity fmt ...] builds the message with a format
    string. *)

val severity_name : severity -> string
(** Lower-case name: ["error"], ["warning"], ["info"]. *)

val errors : t list -> t list
(** The [Error]-severity subset — what CI and [qxmap lint] fail on. *)

val count : severity -> t list -> int

val by_severity : t -> t -> int
(** Sort key: errors first, then warnings, then infos; ties keep code
    order.  Locations do not participate, so file order is preserved. *)

val to_string : t -> string
(** Compiler-style one-liner: [file:line: severity QL-xxx: message] (the
    location prefix is omitted when there is none). *)

val to_json : t -> Qxm_json.Sjson.t
(** One JSON object with fields [code], [severity], [file] and [line]
    (when there is a location), and [message]. *)

val list_to_json : t list -> string
(** JSON array of {!to_json} objects, one per line. *)

val pp : Format.formatter -> t -> unit
