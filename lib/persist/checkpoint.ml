(* The FAMS-style checkpoint engine (docs/MODEL.md §13).

   A checkpoint batches everything committed so far into one sealed,
   atomically-recoverable unit: holding the commit lock (so no update can
   be mid-apply and the lsn horizon is frozen), the committer marshals
   the committed array the lock guards — under the lock it is exactly the
   state of every lsn below the horizon, so no scan of the inner object
   is needed — and writes a [Checkpoint_begin gen; Scan_seal gen;
   Checkpoint_end gen] triple, then a sync: O(1) steps.  Recovery only
   ever trusts a complete triple, so a power loss anywhere inside the
   window leaves the previous checkpoint authoritative and the new one
   invisible (begin-without-end).

   A power loss between the first append and the sync can silently eat
   part of the triple from the device's write cache; the barrier would
   then cover a hole.  [write] detects this with the device's loss
   counter and rewrites the whole triple — duplicate complete triples are
   harmless (recovery takes the last). *)

module Metrics = Psnap_sched.Metrics

module Make (St : Storage.S) = struct
  module W = Wal.Make (St)

  let rec write dev ~gen ~next_lsn ~payload =
    let l0 = St.losses dev in
    W.append dev (Wal.Checkpoint_begin { gen; next_lsn });
    W.append dev (Wal.Scan_seal { gen; payload });
    W.append dev (Wal.Checkpoint_end { gen });
    St.sync dev;
    if St.losses dev <> l0 then write dev ~gen ~next_lsn ~payload
    else Metrics.incr Metrics.Durable.checkpoints
end
