(** Plain-text task-graph format.

    Line-oriented, whitespace-separated, ['#'] comments:

    {v
    # optional comments and blank lines anywhere
    tasks <n>
    task <id> <comp>
    edge <src> <dst> <comm>
    v}

    [tasks] must come first and fixes the id range; every [task] line
    sets the computation cost of one id in [0 .. n-1] (each exactly
    once); [edge] lines may appear in any order after [tasks].

    Tokens ({!Text_syntax}, shared with schedule files):
    - lines end in ["\n"] or ["\r\n"]; the last may be unterminated;
    - a ['#'] starts a comment that runs to the end of its line;
    - fields are separated by blanks, which are space and tab only; a
      field that is exactly ["\r"] is ignored;
    - [<n>], [<id>], [<src>] and [<dst>] use OCaml's integer literal
      syntax ([12], [+5], [0x10], [1_000], ...);
    - [<comp>] and [<comm>] use OCaml's float literal syntax and must
      be finite; the graph builder further rejects negative costs.

    Errors name the 1-based line they were found on; checks that need
    the whole text (missing [task] lines, bad edges, cycles) name the
    last line. {!to_string} writes every float with ["%.17g"], so
    [of_string (to_string g)] has the same bits as [g]. *)

exception Parse_error of { line : int; message : string }

val to_string : Taskgraph.t -> string

val of_string : string -> Taskgraph.t
(** One pass over the text.
    @raise Parse_error on malformed input (including cycles, reported on
    the last line). *)

val save : Taskgraph.t -> path:string -> unit

val load : path:string -> Taskgraph.t
(** @raise Parse_error and [Sys_error] as applicable. *)
