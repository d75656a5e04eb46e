(** First-class-module-friendly wrapper around a snapshot implementation:
    one handle per process, exposed as closures so experiment code can hold
    several implementations in one list without abstract-type escapes. *)

type obj = {
  update : pid:int -> int -> int -> unit;  (** pid, component, value *)
  scan : pid:int -> int array -> int array;
  last_collects : pid:int -> int;
}

type t = { name : string; create : n:int -> int array -> obj }

val of_module : (module Psnap.Snapshot.S) -> t

val sim : string -> t
(** The row of [Psnap.On_sim.snapshots] with this name (the names
    [simulate --impl] accepts); raises [Not_found] on any other name. *)
