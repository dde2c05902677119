(** The line syntax shared by the plain-text formats: {!Serial}'s task
    graphs and [Flb_platform.Schedule_io]'s schedules.

    A text is a sequence of lines, each ended by ['\n'] or ["\r\n"]; the
    last line may be unterminated, and a text ending in a line end has
    a last, empty line. Lines are numbered from 1. Everything from a
    ['#'] to the end of its line is a comment. A field is a maximal run
    of characters other than blanks (space and tab); a field that is
    exactly ["\r"] is ignored. Integers use OCaml's literal syntax
    ({!int_of_string}: [12], [-3], [+5], [0x10], [1_000]); floats use
    OCaml's ({!float_of_string}).

    {!scanner} reads a text in one pass, line by line, without
    splitting it into lists; {!add_int} and {!add_float} write the
    numbers the formats print. *)

type scanner

val scanner : string -> scanner
(** A scanner positioned before the first line of the text. *)

val next_line : scanner -> bool
(** Moves to the next line and splits it into fields; [false] once
    every line has been read. *)

val line : scanner -> int
(** Number of the current line; once {!next_line} has returned [false],
    the number of the last line. *)

val num_fields : scanner -> int
(** Fields on the current line, comments excluded. *)

val field : scanner -> int -> string
(** Field [i] (from 0) of the current line, as a fresh string. *)

val field_is : scanner -> int -> string -> bool
(** [field_is s i w] is [field s i = w], without copying the field. *)

val int_field : scanner -> int -> int option
(** [int_of_string_opt (field s i)]; plain decimal digits are read in
    place. *)

val float_field : scanner -> int -> float array -> int -> bool
(** [float_field s i a j] stores [float_of_string_opt (field s i)] in
    [a.(j)]: when that is [Some x] it sets [a.(j)] to [x] and returns
    [true]; when it is [None] it returns [false] and leaves [a] alone.
    A field [[+-]digits[.digits]] of at most 18 significant and 22
    fraction digits is read in place, with no allocation.
    @raise Invalid_argument if [j] is not an index of [a]. *)

val add_int : Buffer.t -> int -> unit
(** Appends the decimal form {!string_of_int} gives. *)

val add_float : Buffer.t -> float -> unit
(** Appends the float as [Printf] ["%.17g"] prints it; for a finite
    float, {!float_of_string} reads that back bit for bit. A float of
    magnitude in [\[1e-4, 1e17)] (or zero) is written without
    allocating. *)
