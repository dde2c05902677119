(** The named experiments behind every table and figure of
    EXPERIMENTS.md: the paper's Table 1 and Figures 2–4, the ablations
    and the extension experiments E7–E13, and the two real-execution
    tables. [flb experiment NAME…|all] runs them.

    Each runs at the paper's scale, or under [quick] on smaller graphs
    and fewer instances for a smoke run. Its text is the rendered table
    followed by the shape the paper (or the extension's hypothesis)
    expects. *)

type output = {
  text : string;
  csv : string option;
      (** Plot-ready rows, for fig2, fig3, fig4, complexity, runtime and
          resched. *)
}

type t = {
  name : string;  (** lowercase and unique *)
  title : string;
  run : quick:bool -> output;
}

val all : t list
(** table1, fig2, fig3, fig4, ablation, complexity, duplication,
    granularity, multistep, mesh, contention, random, runtime, resched. *)

val find : string -> t option
(** Case-insensitive lookup by [name]. *)
