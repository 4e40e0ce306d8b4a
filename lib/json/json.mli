(** A minimal JSON value type, parser and printer: the tree's one JSON
    codec.

    The dependency set has no JSON library. Everything that writes or
    reads JSON goes through this module: the daemon's wire format, the
    load generator's reports, [Obs]'s trace, flight and metrics files,
    the bench's [BENCH_JSON]/[BENCH_HISTORY] entries and the bench diff.
    Covers all of RFC 8259 except [\uXXXX] surrogate pairs (non-BMP
    escapes decode to U+FFFD); numbers are IEEE doubles. NaN and
    infinities print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!parse} with a message carrying the byte offset. *)

val parse : string -> t
(** Parse one JSON document; trailing non-whitespace is an error, and so
    is nesting arrays and objects more than 512 deep (["nesting deeper
    than 512"]), which bounds the work of a hostile body. *)

val to_string : t -> string
(** Compact single-line serialization. Object member order is preserved. *)

val member : string -> t -> t option
(** [member key json] is the value of [key] when [json] is an [Obj]
    containing it. *)

val string_field : string -> t -> string option

val list_field : string -> t -> t list option

val bool_field : ?default:bool -> string -> t -> bool option
(** [None] when present but not a boolean; [Some default] when absent. *)

val num : float -> t
(** [Num], with non-finite values preserved (they serialize as [null]). *)
