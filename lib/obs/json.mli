(** Minimal JSON reader/writer for the trace exporters and [ddsim report].

    Deliberately tiny: the repository bakes no JSON dependency, and the
    only documents parsed are the ones this repository writes (stable,
    machine-generated).  The parser nevertheless accepts any well-formed
    JSON value — objects, arrays, strings with escapes, numbers, booleans,
    null — so hand-edited traces keep working. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> t
(** Raises [Failure] with a position-carrying message on malformed input
    or trailing garbage. *)

val member : t -> string -> t option
(** Field lookup on an [Obj]; [None] on missing field or non-object. *)

val to_str : t -> string
(** Raises [Failure] when the value is not a [Str]. *)

val to_list : t -> t list
(** Raises [Failure] when the value is not an [Arr]. *)

val escape : string -> string
(** JSON string-literal escaping (without the surrounding quotes). *)
