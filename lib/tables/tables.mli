(** Tabular output for the experiment harness.

    A table is a header row plus data rows of strings; rendering
    supports aligned ASCII (for the terminal) and GitHub Markdown (for
    EXPERIMENTS.md). *)

type align = Left | Right
(** Column alignment; numbers read best right-aligned. *)

type t
(** An immutable table. *)

val create : ?aligns:align list -> header:string list -> string list list -> t
(** [create ~header rows] builds a table.  Every row must have the same
    length as [header].  [aligns] defaults to right-alignment for every
    column. *)

val of_floats : header:string list -> float list list -> t
(** [of_floats ~header rows] formats every number of [rows] with
    {!cell}. *)

val cell : float -> string
(** [cell x] formats one float: ["nan"], an integer below 10⁹ without
    a fraction, anything else with 4 significant digits. *)

val render_ascii : t -> string
(** Fixed-width ASCII rendering with a separator rule under the
    header. *)

val render_markdown : t -> string
(** GitHub-flavoured Markdown rendering. *)

val print : ?title:string -> t -> unit
(** [print t] writes the ASCII rendering to stdout, preceded by an
    underlined [title] when given. *)

(** Terminal plots; see {!module-Ascii_plot}. *)
module Ascii_plot = Ascii_plot
