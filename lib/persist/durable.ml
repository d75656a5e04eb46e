(* Failure-atomic durable snapshots (docs/MODEL.md §13).

   [Make (M) (Inner) (St)] wraps any snapshot implementation with a
   write-ahead log on a storage device so that every {e acknowledged}
   update survives a power loss and recovery rebuilds a state the
   linearizability oracle accepts.

   The core difficulty: [Inner] is a black box, so the order in which
   concurrent updates linearize inside it is invisible — any scheme that
   logs updates concurrently (log order ≠ apply order) lets recovery
   replay overwrites of the same component in the wrong order,
   resurrecting overwritten values.  The protocol therefore serializes
   commits through a single {e commit lock} holding the published intent:

     acquire (CAS Free{lsn} -> Held{pid; lsn; i; v})
       -> append Update{lsn} -> sync -> Inner.update i v -> release

   The append marshals the value into a scratch buffer that [t] owns and
   only the lock's holder uses, and frames it there
   ([Wal.Make.append_update]): no record and no payload string, so a
   commit allocates only its frame and the lock's two states.

   Log order = apply order by construction, and — because nothing reaches
   [Inner] before it is durable — a scan can only ever observe durable
   values, so no completed operation's evidence is ever lost
   (write-ahead invariant).  The committer also writes the value into a
   [committed] array before releasing, so under the lock that array is
   exactly the state of every lsn below the next one: a checkpoint seals
   it as is, with no scan of [Inner], marshalled into the same scratch,
   and then discards the log before its triple (O(1) steps: the triple's
   three appends, one sync and one discard).  So the log holds the last
   complete triple and the commits since, and a restart reads that, not
   the whole history.  Scans never touch the lock: they stay as
   wait-free as [Inner]'s.  Updates are blocking, like a database log
   latch; a crashed lock holder blocks writers until its next incarnation
   completes the published intent ([resume], detectable-operation style).
   Only the owner ever completes its intent — helping by other processes
   is deliberately absent, because a helper whose completion races a
   later same-component commit would clobber the newer value.

   A power loss without a crash can eat an appended-but-unsynced record
   from the write cache, after which the committer's own sync would
   cover a hole and acknowledge a non-durable update.  The commit path
   detects an intervening loss with the device's loss counter and
   re-appends; the duplicate lsn a conservative retry can produce is
   collapsed by recovery's lsn-monotone filter.

   [config.write_ahead = false] flips to a deliberately unsound late-log
   order (apply to [Inner] first, then append + sync): a scan can then
   observe a value whose record is still volatile, and a power loss makes
   it a committed-then-lost violation.  This mode exists to demonstrate
   that the harness and oracle actually catch recovery bugs — the
   committed witness schedule in schedules/ drives it (EXPERIMENTS.md
   E18). *)

module Metrics = Psnap_sched.Metrics

module Make
    (M : Psnap_mem.Mem_intf.S)
    (Inner : Psnap_snapshot.Snapshot_intf.S)
    (St : Storage.S) =
struct
  module W = Wal.Make (St)
  module C = Checkpoint.Make (St)
  module R = Recovery.Make (St)

  type config = {
    checkpoint_every : int;
        (** write a sealed checkpoint every this many commits; 0 = never *)
    write_ahead : bool;  (** [false] = the deliberately unsound late-log
                             mode (see above) *)
  }

  let default_config = { checkpoint_every = 0; write_ahead = true }

  (* The commit lock.  [Free] carries the next lsn to draw; [Held] is a
     published intent (enough for the owner's next incarnation to finish
     the commit); [Sealing] serializes an explicit checkpoint the same
     way.  All transitions CAS against the physically-read value, per the
     MEM contract. *)
  type 'a lock_state =
    | Free of int
    | Held of { pid : int; lsn : int; index : int; value : 'a }
    | Sealing of { pid : int; next_lsn : int }

  type 'a t = {
    inner : 'a Inner.t;
    dev : St.t;
    lock : 'a lock_state M.ref_;
    cfg : config;
    committed : 'a array;  (* guarded by the commit lock; see above *)
    scratch : Wal.scratch;  (* guarded by the commit lock: commits
                               marshal their value into it, checkpoints
                               their seal *)
    mutable commits_since_ckpt : int;  (* guarded by the commit lock *)
    mutable gen : int;  (* guarded by the commit lock *)
  }

  type 'a handle = { h : 'a Inner.handle; pid : int; t : 'a t }

  let name = "durable(" ^ Inner.name ^ ")"

  let make_lock next_lsn = M.make ~name:"durable.lock" (Free next_lsn)

  let create_with ?(config = default_config) ~n init =
    {
      inner = Inner.create ~n init;
      dev = St.create ~name:"wal";
      lock = make_lock 1;
      cfg = config;
      committed = Array.copy init;
      scratch = Wal.scratch ();
      commits_since_ckpt = 0;
      gen = 0;
    }

  let create ~n init = create_with ~n init

  (* Rebuild from a device: one fold over the log repairs the tail, lands
     on the last sealed checkpoint + replayed suffix, and restarts lsns
     above everything the log mentions.  Step-free by construction —
     [Inner.create] only allocates cells and log reads are recovery-time —
     so under the simulator the first fiber to recover completes the
     rebuild atomically. *)
  let recover ?(config = default_config) dev ~n init =
    let st, _damage = R.load dev ~init in
    {
      inner = Inner.create ~n st.Recovery.values;
      dev;
      lock = make_lock st.Recovery.next_lsn;
      cfg = config;
      committed = Array.copy st.Recovery.values;
      scratch = Wal.scratch ();
      commits_since_ckpt = 0;
      gen = st.Recovery.checkpoint_gen;
    }

  let storage t = t.dev

  let handle t ~pid = { h = Inner.handle t.inner ~pid; pid; t }

  let scan h idxs = Inner.scan h.h idxs

  let read h i = Inner.read h.h i

  let last_scan_collects h = Inner.last_scan_collects h.h

  (* Append + barrier, verified against an intervening power loss: if the
     loss counter moved inside the window the record may have been eaten
     from the write cache before the barrier covered it, so re-append.
     The retry can duplicate an lsn that did survive, and so can a resumed
     commit whose dead incarnation had already appended it — harmless,
     recovery applies each lsn once. *)
  let rec append_durably h ~lsn ~index value =
    let t = h.t in
    let l0 = St.losses t.dev in
    W.append_update t.dev t.scratch ~lsn ~pid:h.pid ~index value;
    St.sync t.dev;
    if St.losses t.dev <> l0 then append_durably h ~lsn ~index value

  (* Must hold the lock (Held or Sealing), under which [committed] is
     exactly the state of every lsn below [next_lsn]: seal it, no scan,
     marshalled into the scratch only the lock's holder uses. *)
  let do_checkpoint t ~next_lsn =
    t.gen <- t.gen + 1;
    C.write t.dev t.scratch ~gen:t.gen ~next_lsn t.committed;
    t.commits_since_ckpt <- 0

  let maybe_checkpoint t ~next_lsn =
    if t.cfg.checkpoint_every > 0
       && t.commits_since_ckpt >= t.cfg.checkpoint_every
    then do_checkpoint t ~next_lsn

  (* Finish a commit whose intent is published in the lock, possibly one
     inherited from a crashed incarnation of this pid. *)
  let complete h ~lsn ~index ~value =
    let t = h.t in
    if t.cfg.write_ahead then begin
      append_durably h ~lsn ~index value;
      (* Re-applying an inherited intent may write a value [Inner] already
         holds — same value, observationally idempotent. *)
      Inner.update h.h index value
    end
    else begin
      (* Late-log mode (unsound on purpose): visible before durable.  A
         power loss between the apply and the sync is a
         committed-then-lost bug the oracle flags. *)
      Inner.update h.h index value;
      W.append_update t.dev t.scratch ~lsn ~pid:h.pid ~index value;
      St.sync t.dev
    end;
    t.committed.(index) <- value;
    Metrics.incr Metrics.Durable.commits;
    t.commits_since_ckpt <- t.commits_since_ckpt + 1;
    maybe_checkpoint t ~next_lsn:(lsn + 1);
    M.write t.lock (Free (lsn + 1))

  (* Blocking acquire: spin one lock read per iteration (the honest cost
     of a log latch — scans never pay it).  A Held/Sealing state owned by
     this pid must be a dead incarnation's: operations of one handle are
     sequential, so a live incarnation can never meet its own lock. *)
  let rec update h index value =
    let t = h.t in
    let cur = M.read t.lock in
    match cur with
    | Free lsn ->
      let intent = Held { pid = h.pid; lsn; index; value } in
      if M.cas t.lock ~expected:cur ~desired:intent then
        complete h ~lsn ~index ~value
      else update h index value
    | Held { pid; lsn; index = i0; value = v0 } when pid = h.pid ->
      complete h ~lsn ~index:i0 ~value:v0;
      update h index value
    | Sealing { pid; next_lsn } when pid = h.pid ->
      (* A checkpoint died with its incarnation: the incomplete triple is
         invisible to recovery, so just release. *)
      M.write t.lock (Free next_lsn);
      update h index value
    | Held _ | Sealing _ -> update h index value

  (* Completes this pid's published intent, if any.  Recovery bodies call
     it before resuming work after a plain crash–restart (after a power
     loss there is nothing to resume: the lock died with the memory). *)
  let resume h =
    match M.read h.t.lock with
    | Held { pid; lsn; index; value } when pid = h.pid ->
      complete h ~lsn ~index ~value
    | Sealing { pid; next_lsn } when pid = h.pid ->
      M.write h.t.lock (Free next_lsn)
    | Free _ | Held _ | Sealing _ -> ()

  (* Force a sealed checkpoint now, serialized through the lock. *)
  let rec checkpoint_now h =
    let t = h.t in
    let cur = M.read t.lock in
    match cur with
    | Free next_lsn ->
      if
        M.cas t.lock ~expected:cur
          ~desired:(Sealing { pid = h.pid; next_lsn })
      then begin
        do_checkpoint t ~next_lsn;
        M.write t.lock (Free next_lsn)
      end
      else checkpoint_now h
    | Held { pid; lsn; index; value } when pid = h.pid ->
      complete h ~lsn ~index ~value;
      checkpoint_now h
    | Sealing { pid; next_lsn } when pid = h.pid ->
      M.write t.lock (Free next_lsn);
      checkpoint_now h
    | Held _ | Sealing _ -> checkpoint_now h

  let generation t = t.gen
end
