(** Timing corners: multiplicative derate sets on the linear delay
    model. The {!Engine} analyzes one shared graph under every corner
    of its active set; consumers read worst-corner slack through the
    engine's plain accessors rather than indexing corners by hand. *)

type t = {
  name : string;
  cell : float;  (** derate on comb arc delay and clk->q *)
  wire : float;  (** derate on RC wire delay *)
  setup : float;  (** derate on register setup requirement *)
}

val typical : t
(** All-unit derates. A single-[typical] run is bit-identical to the
    historical single-corner engine (IEEE: [x *. 1.0 = x]). *)

val slow : t
val fast : t

val harsh : t
(** Aggressive wire-heavy derates (cell 1.30 / wire 1.50 / setup
    1.20), used by the recovery-loop smoke to force post-compose
    violations. *)

val named : t list
(** The built-in corners, addressable by name in {!parse_set}. *)

val default : t array
(** [[| typical |]] — the single-corner set every entry point assumes
    unless told otherwise. *)

val make : name:string -> cell:float -> wire:float -> setup:float -> t
(** @raise Invalid_argument if any factor is non-positive. *)

val spread_set : float -> t array
(** Designgen derate-profile knob: [spread_set 0.0] is {!default};
    a positive spread [s] yields [[| typical; derated |]] where the
    derated corner scales cell by [1+s], wire by [1+1.5s], setup by
    [1+0.5s]. *)

val to_string : t -> string
(** Built-in corners print as their bare name; custom corners as
    [name:cell:wire:setup]. *)

val set_to_string : t array -> string
(** Comma-joined {!to_string}; inverse of {!parse_set}. *)

val parse_one : string -> (t, string) result

val parse_set : string -> (t array, string) result
(** Parse a comma-separated corner list. Each element is either a
    built-in name ([typical], [slow], [fast], [harsh]) or a custom
    [name:cell:wire:setup] quadruple with positive factors. *)
