(* The FAMS-style checkpoint engine (docs/MODEL.md §13).

   A checkpoint batches everything committed so far into one sealed,
   atomically-recoverable unit.  Its caller holds every stripe of the
   commit lock (taken in ascending order, so no update can be mid-apply
   and every stripe's lsns are frozen) and passes the largest of the
   stripes' next lsns as [next_lsn]; after [write] it releases every
   stripe at that lsn, so each later commit draws an lsn above the
   triple's floor.  It seals the committed array the stripes guard —
   with every stripe held it is exactly the state of every lsn drawn so
   far, so no scan of the inner object is needed — as a
   [Checkpoint_begin gen; Scan_seal gen; Checkpoint_end gen] triple,
   then syncs.  The seal is marshalled into the caller's scratch and
   framed there ([Wal.Make.append_seal]).  Recovery only ever trusts a
   complete triple, so a power loss anywhere inside the window leaves
   the previous checkpoint authoritative and the new one invisible
   (begin-without-end).

   A power loss between the first append and the sync can silently eat
   part of the triple from the device's write cache; the barrier would
   then cover a hole.  [write] detects this with the device's loss
   counter and rewrites the whole triple — duplicate complete triples are
   harmless (recovery takes the last).

   Once the triple is synced, nothing before it can change what recovery
   rebuilds: a complete triple resets recovery to its seal, and every lsn
   before it is at most its floor.  So [write] discards the log up to
   where its successful attempt's triple starts, and the log always
   starts at the last complete triple.  A restart then reads one triple
   and the updates since, and the log's size depends on the checkpoint
   interval, not on the history.  [write] itself is O(1) steps: three
   appends, one sync, one discard; taking and releasing the stripes is
   its caller's. *)

module Metrics = Psnap_sched.Metrics

module Make (St : Storage.S) = struct
  module W = Wal.Make (St)

  let write dev sc ~gen ~next_lsn view =
    (* The offset where the attempt that no power loss touched began. *)
    let rec attempt () =
      let l0 = St.losses dev and start = St.size dev in
      W.append dev (Wal.Checkpoint_begin { gen; next_lsn });
      W.append_seal dev sc ~gen view;
      W.append dev (Wal.Checkpoint_end { gen });
      St.sync dev;
      if St.losses dev <> l0 then attempt () else start
    in
    let start = attempt () in
    St.discard_prefix dev start;
    Metrics.add Metrics.Durable.discarded_bytes start;
    Metrics.incr Metrics.Durable.checkpoints
end
