(** JSON values, a strict reader and a compact writer.

    The one JSON codec of the repository: every document the programs
    write (metrics, stats snapshots, traces, reports, the allocation
    baseline) goes through {!to_buffer}, and every document they read
    back goes through {!of_string}.

    Numbers are floats, as in JSON itself; an integer up to 2{^ 53} is
    exact. The writer prints a finite float in the fewest significant
    digits (15, 16 or 17) that read back bit-identical, so an integral
    value below 10{^ 15} prints as an integer ([8], not [8.0]). A
    non-finite float prints as [null]. Strings are escaped as RFC 8259
    requires: ['"'], ['\\'] and control characters are escaped, valid
    UTF-8 passes through unchanged, and each invalid UTF-8 sequence
    becomes [\ufffd]. The layout is compact: no whitespace
    between tokens ([{"key":value,...}]), fields in the order given. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** fields in document order *)

val int : int -> t
(** [int n] is [Num (float_of_int n)]. *)

val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string

val of_string : string -> (t, string) result
(** Reads exactly one RFC 8259 document, surrounded by optional
    whitespace. Rejects anything else with a message naming the byte
    offset: a trailing comma, a leading zero, [NaN], a raw control
    character inside a string, a lone UTF-16 surrogate in a [\u]
    escape, content after the document. [\u] escapes decode to UTF-8;
    other bytes of a string are kept as they are. *)

val member : string -> t -> t option
(** [member key v] is the value of [v]'s first field named [key];
    [None] when [v] is not an object or has no such field. *)
