(** Pluggable durable storage for the write-ahead log (docs/MODEL.md §13).

    A device is an append-only byte log with an explicit durability
    barrier: [append] buffers bytes at the tail, [sync] guarantees that
    everything appended so far survives a power loss.  Bytes appended
    since the last [sync] live in the device's volatile write cache and
    are dropped — except for a deterministic torn prefix — when the
    simulator injects a {!Psnap_sched.Scheduler.Power_loss} decision.

    Two backends, mirroring [lib/mem]'s pairing: {!Sim} charges one
    simulated step per [append]/[sync] and registers with the simulator's
    power-loss dispatcher; {!Mc} is a mutex-guarded in-memory device for
    the multi-domain loadgen, where the serialization and locking cost of
    the log is the durability overhead being measured.

    Both keep the log in one growable buffer they own: appends are
    amortized O(1), {!S.truncate} moves only the length,
    {!S.discard_prefix} moves the surviving suffix to the front of the
    same buffer, and {!S.with_contents} lends the bytes to a reader
    (recovery) in place. *)

module type S = sig
  type t

  val create : name:string -> t
  (** A fresh, empty device.  [name] labels its steps in simulator
      traces. *)

  val name : t -> string

  val append : t -> string -> unit
  (** Buffer bytes at the tail of the log (volatile until [sync]). *)

  val sync : t -> unit
  (** Durability barrier: everything appended before this call survives
      any later power loss. *)

  val size : t -> int
  (** Bytes in the log, buffered writes included. *)

  val with_contents : t -> (string -> int -> 'a) -> 'a
  (** [with_contents t f] is [f log len] over the device's own bytes,
      without a copy: the log is the first [len] bytes of [log], buffered
      writes included.  [log] is valid only inside [f] and only up to
      [len]: the bytes past it are not part of the log, and after [f]
      returns the device may overwrite or drop all of them.  [f] runs
      under the device's lock ({!Mc}), so it must not call back into
      the device. *)

  val truncate : t -> int -> unit
  (** [truncate t n] discards every byte at offset [n] and beyond, in
      O(1), and marks the surviving prefix durable.  Recovery-time
      repair only: it models the failure-atomic tail repair a recovery
      pass performs while the system is down, so it costs no step (see
      docs/MODEL.md §13 on the atomic-recovery modeling choice).  Only
      recovery calls it; a running system shortens its log with
      {!discard_prefix}. *)

  val discard_prefix : t -> int -> unit
  (** [discard_prefix t n] drops the log's first [n] bytes: offset [n]
      becomes offset 0.  A checkpoint calls it, once its triple is
      synced, to drop everything before the triple.  Only durable bytes
      may go: {!Sim} refuses any [n] past the synced prefix, {!Mc} any
      [n] past the log's end (it has no write cache), both with
      [Invalid_argument].  The synced prefix shrinks by [n] too, so a
      later power loss tears the same unsynced tail it would have torn
      before.  On {!Sim} it is one scheduled step (a [Write] on the
      device's pseudo-cell): a power loss or a crash at that step leaves
      the whole log, which recovery reads the same way. *)

  val losses : t -> int
  (** Power losses this device has lived through — the signal a harness
      polls to learn that the in-memory state it pairs with this log died
      and must be rebuilt by recovery. *)
end

(** The simulated device.  Each [append]/[sync]/[discard_prefix] is one
    scheduled step on a per-device pseudo-cell, so the adversary can
    interleave — or cut power — between a record landing in the write
    cache and the barrier that would have made it durable.  Reading and
    truncation cost nothing: they model recovery-time work, which happens
    while the machine is down and outside the adversary's schedule. *)
module Sim : sig
  include S

  val reset : unit -> unit
  (** Forget every device created so far (the power-loss dispatcher stops
      touching them).  Harnesses call this between runs, exactly like
      [Mem_sim]'s per-run resets, so replay is a function of the
      workload. *)

  val set_torn_policy : (unsynced:int -> int) -> unit
  (** How many of the un-synced bytes survive a power loss as a torn tail
      (default: half, rounded down — enough to leave a torn record for
      recovery to repair).  Must be deterministic: replay depends on it. *)

  val losses_total : unit -> int
  (** Power-loss decisions dispatched since the last {!reset}. *)
end

(** The multicore device.  It has no power loss and no write cache:
    [sync] only counts the barrier. *)
module Mc : S
