(** The repository's one JSON codec.

    Every JSON document the repository writes or reads goes through
    this module: the [qxmap --json] reports, trace and flight-recorder
    events, lint and audit findings, the [table1]/[bench] records, optimality
    certificates, the [qxmapd] wire protocol, and the readers behind
    [qxm_prof] and [trace_check].  It is a small, dependency-free value
    type with a strict recursive descent parser and a printer that
    round-trips through it.

    The parser accepts exactly the JSON grammar (RFC 8259) with two
    deliberate limits suited to a line protocol: numbers are parsed as
    OCaml floats, and [\uXXXX] escapes are decoded to UTF-8 (surrogate
    pairs included).  Any malformed input yields [Error] with a position
    and reason — never an exception — so a corrupt request line or a
    damaged cache entry degrades into a structured rejection. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON document; trailing non-whitespace is an error. *)

val print : t -> string
(** One-line rendering with [", "] and [": "] separators; [parse (print
    v)] returns a value equal to [v] (object field order preserved).
    Integral numbers below 1e15 print without a fraction ([42]); other
    finite numbers print as the shortest of 15, 16 or 17 significant
    digits that parses back to the same float ([0.1]). *)

(** {1 Constructors} *)

val int : int -> t
(** [Num] of an integer. *)

val fixed : int -> float -> t
(** [fixed d f] is [Num f] rounded to [d] decimals — the value
    [Printf "%.<d>f"] would show, printed without trailing zeros. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on missing field or non-object. *)

val to_string_opt : t -> string option
val to_float_opt : t -> float option
val to_int_opt : t -> int option
(** [Num] with an integral value. *)

val to_bool_opt : t -> bool option
