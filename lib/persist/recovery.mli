(** Rebuilding snapshot state from a WAL (docs/MODEL.md §13).

    The recovered state is the last fully-sealed checkpoint — the last
    [Checkpoint_end] whose generation also has a [Checkpoint_begin] and
    [Scan_seal] earlier in the log — plus every update record after it,
    replayed in log order.  Both come out of one forward fold over the
    log.  Log order is apply order (lsns are drawn and records appended
    under the commit lock), and the lsn-monotone filter makes replay
    idempotent under owner-recovery duplicate appends.  An incomplete
    checkpoint (begin without end) is ignored: recovery falls back to the
    previous sealed triple, or to [init]. *)

type 'a state = {
  values : 'a array;  (** recovered component values *)
  next_lsn : int;  (** the lsn the next commit must draw *)
  replayed : int;  (** update records applied on top of the checkpoint *)
  checkpoint_gen : int;  (** generation recovered from; 0 = none *)
}

val replay : init:'a array -> Wal.record list -> 'a state
(** The fold {!Make.load} runs over a device, here over a record list
    (assumed to be a valid log prefix).  A complete triple resets the
    base to its sealed view; updates apply under the lsn filter. *)

(** Device-level recovery: read, repair the tail and replay in one
    {!Wal.Make.fold} (no record list is built), then account (the
    [Metrics.Durable] counters). *)
module Make (St : Storage.S) : sig
  val load : ?repair:bool -> St.t -> init:'a array -> 'a state * Wal.damage
  (** [repair] defaults to [true]. *)
end
