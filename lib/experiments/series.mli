(** Row/series printing for the experiment harness: aligned tables on
    stdout.  Reproduction infrastructure with no paper counterpart —
    the formatting idiom every experiment's tables share. *)

val table : header:string list -> string list list -> unit
(** [table ~header rows] prints an aligned table. *)

val f1 : float -> string
(** One decimal. *)

val f3 : float -> string
val sci : float -> string
(** Scientific, three significant digits (e.g. ["1.23e+06"]). *)

val pct : float -> string
(** Percentage with two decimals; ["-"] for NaN. *)

val heading : string -> unit
(** Print an underlined section heading. *)
