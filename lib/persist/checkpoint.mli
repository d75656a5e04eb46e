(** The FAMS-style checkpoint engine (docs/MODEL.md §13): batch all
    committed updates into one sealed begin/seal/end triple that recovery
    applies atomically — it only ever trusts a {e complete} triple, so a
    power loss inside the write window leaves the previous checkpoint
    authoritative.  The caller must hold every stripe of the commit lock
    and pass the largest of their next lsns as [next_lsn]: the stripes
    freeze every component's lsns, and the view sealed is the committed
    array they guard (see [Durable]), not a scan of the inner object.
    Once the triple is durable, the log before it is discarded, so the
    log always starts at the last complete triple.  [write] is O(1)
    steps: three appends, one sync and one discard. *)

module Make (St : Storage.S) : sig
  val write :
    St.t -> Wal.scratch -> gen:int -> next_lsn:int -> 'a -> unit
  (** [write dev sc ~gen ~next_lsn view] appends the triple sealing
      [view], marshalled into [sc] ({!Wal.Make.append_seal}), and syncs;
      if a power loss ate part of the triple from the write cache before
      the barrier covered it (detected via {!Storage.S.losses}), it
      rewrites the whole triple — duplicate complete triples are
      harmless, recovery takes the last.  Then it discards every byte
      before the triple that made it ({!Storage.S.discard_prefix}) and
      counts them in [Metrics.Durable.discarded_bytes]. *)
end
