(** The FAMS-style checkpoint engine (docs/MODEL.md §13): batch all
    committed updates into one sealed begin/seal/end triple that recovery
    applies atomically — it only ever trusts a {e complete} triple, so a
    power loss inside the write window leaves the previous checkpoint
    authoritative.  The caller must hold the commit lock: the lock freezes
    the lsn horizon, and the view sealed is the committed array the lock
    guards (see [Durable]), not a scan of the inner object.  A checkpoint is
    O(1) steps: three appends and one sync. *)

module Make (St : Storage.S) : sig
  val write : St.t -> gen:int -> next_lsn:int -> payload:string -> unit
  (** Append the triple and sync; if a power loss ate part of the triple
      from the write cache before the barrier covered it (detected via
      {!Storage.S.losses}), rewrite the whole triple — duplicate complete
      triples are harmless, recovery takes the last. *)
end
