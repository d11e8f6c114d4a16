(** Growable arrays (OCaml 5.1 predates stdlib [Dynarray]); the backing
    store of the netlist/placement databases. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val push : 'a t -> 'a -> int
(** Appends and returns the index of the new element. *)

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] out of range. *)

val set : 'a t -> int -> 'a -> unit

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val map_to_array : ('a -> 'b) -> 'a t -> 'b array

val suffix : 'a t -> int -> 'a list
(** Elements from index [from] (inclusive) to the end, in order; the
    whole content when [from <= 0], [] when [from >= length]. *)
