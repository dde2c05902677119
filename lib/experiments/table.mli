(** Aligned plain-text tables for experiment output. *)

type t

val create : header:string list -> t

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val add_separator : t -> unit

val render : t -> string
(** Columns padded to their widest cell, two spaces between columns. *)

val cell_float : ?decimals:int -> float -> string
(** Fixed-point rendering, default 2 decimals. *)

val domains_cell : cores:int -> int -> string
(** A domain count, suffixed ["*"] when it exceeds [cores]: such a row
    ran oversubscribed, so its wall-clock numbers are not speedups. *)

val cores_note : cores:int -> string
(** The line that heads a table using {!domains_cell}: the host's
    [cores] and what ["*"] marks. *)
