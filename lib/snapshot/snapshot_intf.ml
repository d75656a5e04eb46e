(** The partial snapshot object (Section 2.1 of the paper).

    Stores a vector of [m] components.  [update h i v] atomically writes [v]
    into component [i]; [scan h idxs] atomically reads the components listed
    in [idxs] (in any order, duplicates allowed) and returns their values
    aligned with [idxs].  Both are linearizable and wait-free in every
    implementation of this signature.

    A full snapshot is the special case [scan h [|0; ...; m-1|]]. *)

module type S = sig
  type 'a t

  type 'a handle
  (** Per-process state (announcement register, write counter).  One per
      (object, process id); operations through a handle must not be invoked
      concurrently with each other (processes are sequential threads of
      control, as in the model). *)

  val name : string

  val create : n:int -> 'a array -> 'a t
  (** [create ~n init] — an object with components [init], used by processes
      [0 .. n-1]. *)

  val handle : 'a t -> pid:int -> 'a handle

  val update : 'a handle -> int -> 'a -> unit

  val scan : 'a handle -> int array -> 'a array

  val read : 'a handle -> int -> 'a
  (** [read h i] — a linearizable read of component [i] alone: it returns
      the value the component holds at some instant inside the call.
      Where one register always holds the component's current value
      (Figures 1 and 3, the non-blocking baseline) it is that register's
      single read: no announcement, no active set, no collect.  Elsewhere
      it is the one-component scan [(scan h [|i|]).(0)], which may then
      overwrite [last_scan_collects].  The sharded runtime builds its
      cross-shard scans from it. *)

  val last_scan_collects : 'a handle -> int
  (** Number of collects performed by this handle's most recent [scan] —
      instrumentation for the collect-bound experiments (E6). *)
end
