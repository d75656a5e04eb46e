(** Failure-atomic durable snapshots (docs/MODEL.md §13).

    [Make (M) (Inner) (St)] wraps any snapshot implementation with a
    checksummed write-ahead log + checkpoint layer on a storage device:
    every {e acknowledged} update survives a power loss, and {!Make.recover}
    rebuilds a state the linearizability oracle accepts (durable
    linearizability: completed operations persist; an operation in flight
    at the loss linearizes at most once).

    Each component's commits are serialized through its stripe of a
    striped {e commit lock} (component [i] in stripe [i land (s - 1)],
    [s] the smallest power of two ≥ m, at most 64), which carries a
    published intent — acquire, append, sync, apply, release — so a
    component's log order equals its apply order by construction, and
    nothing reaches [Inner] before it is durable.  Each stripe draws its
    own lsns; recovery filters lsns per component.  Updates of components
    in different stripes never wait for each other; scans never touch
    the lock and keep [Inner]'s wait-freedom.  Updates are blocking (a
    log latch): a crashed stripe holder blocks that stripe's writers
    until its next incarnation completes the published intent via
    {!Make.resume}.  There is deliberately no helping: a helper racing a
    later same-component commit could clobber the newer value.

    Values are serialized with [Marshal]; components must be marshallable
    (no closures, no custom blocks without serializers). *)

module Make
    (M : Psnap_mem.Mem_intf.S)
    (Inner : Psnap_snapshot.Snapshot_intf.S)
    (St : Storage.S) : sig
  include Psnap_snapshot.Snapshot_intf.S

  type config = {
    checkpoint_every : int;
        (** each handle seals a checkpoint every this many of its own
            commits; 0 = never *)
    write_ahead : bool;
        (** [false] flips to a deliberately unsound late-log order (apply
            before append + sync): a scan can observe a value whose record
            is still volatile, which a power loss turns into a
            committed-then-lost violation.  Exists to prove the harness
            catches recovery bugs — see the E18 witness schedule. *)
  }

  val default_config : config
  (** [{ checkpoint_every = 0; write_ahead = true }] *)

  val create_with : ?config:config -> n:int -> 'a array -> 'a t
  (** [create] with an explicit configuration ([create] itself uses
      [default_config]).  Either way the store logs to a fresh device
      named ["wal"]; a store on a device that holds records is rebuilt
      with {!recover}. *)

  val recover : ?config:config -> St.t -> n:int -> 'a array -> 'a t
  (** Rebuild from a device in one fold over its log: repair the damaged
      tail, land on the last sealed checkpoint plus the replayed update
      suffix, restart lsns above everything the log mentions.  Step-free
      under the simulator (log reads and [Inner.create] cost no steps),
      so the first fiber to recover after a blackout completes the
      rebuild atomically. *)

  val resume : 'a handle -> unit
  (** Complete this pid's published intent, if a stripe holds one from a
      crashed incarnation, and release the stripes a crashed checkpoint
      of this pid still holds, at an lsn above every stripe's.  It walks
      every stripe.  Recovery bodies call this before resuming work after
      a plain crash–restart; after a power loss there is nothing to
      resume (the stripes died with the volatile memory). *)

  val checkpoint_now : 'a handle -> unit
  (** Force a sealed checkpoint.  It takes every stripe of the commit
      lock in ascending order, seals the committed values they guard (no
      scan of [Inner]) with the largest of the stripes' next lsns,
      discards the log before the triple, and releases every stripe at
      that lsn.  It costs the triple's three appends, one sync and one
      discard, plus a read, a CAS and a release per stripe.  An update
      whose handle has committed [checkpoint_every] times since its last
      seal runs one after releasing its own stripe. *)

  val storage : 'a t -> St.t

  val generation : 'a t -> int
  (** Checkpoint generations sealed so far (recovered ones included). *)
end
