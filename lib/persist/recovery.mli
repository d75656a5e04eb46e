(** Rebuilding snapshot state from a WAL (docs/MODEL.md §13).

    The recovered state is the last fully-sealed checkpoint — the last
    [Checkpoint_end] whose generation also has a [Checkpoint_begin] and
    [Scan_seal] earlier in the log — plus every update record after it,
    replayed in log order.  Both come out of one forward fold over the
    log's bytes in place, and only they are unmarshalled: the fold keeps
    the offsets of the updates that pass the lsn filter, a complete
    triple clears them, and when the fold ends the last complete seal is
    unmarshalled once, then the kept updates in log order.  A payload
    that a later triple supersedes is checked but never decoded.  A
    component's log order is its apply order (its lsns are drawn and its
    records appended under its stripe of the commit lock), and the lsn
    filter is per component: an update is kept iff its lsn is above the
    last complete triple's floor ([next_lsn - 1]) and above the last lsn
    kept for its component since.  That makes replay idempotent under
    owner-recovery duplicate appends, whatever other stripes' commits
    sit between the copies.  An incomplete checkpoint (begin without
    end) is ignored: recovery falls back to the previous sealed triple,
    or to [init]. *)

type 'a state = {
  values : 'a array;  (** recovered component values *)
  next_lsn : int;  (** the lsn the next commit must draw *)
  replayed : int;  (** update records applied on top of the checkpoint *)
  checkpoint_gen : int;  (** generation recovered from; 0 = none *)
}

val replay : init:'a array -> Wal.record list -> 'a state
(** The fold {!Make.load} runs over a device, here over a record list
    (assumed to be a valid log prefix, as {!Wal.decode_all} returns it:
    every payload is exactly one marshalled value).  The records are
    encoded into one log and folded exactly as a device's bytes are. *)

(** Device-level recovery: fold over the device's bytes in place (no
    copy, no record list), repair the tail in the same
    {!Wal.Make.fold}, then account (the [Metrics.Durable] counters). *)
module Make (St : Storage.S) : sig
  val load : ?repair:bool -> St.t -> init:'a array -> 'a state * Wal.damage
  (** [repair] defaults to [true]. *)
end
