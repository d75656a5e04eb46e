(* Failure-atomic durable snapshots (docs/MODEL.md §13).

   [Make (M) (Inner) (St)] wraps any snapshot implementation with a
   write-ahead log on a storage device so that every {e acknowledged}
   update survives a power loss and recovery rebuilds a state the
   linearizability oracle accepts.

   The core difficulty: [Inner] is a black box, so the order in which
   concurrent updates linearize inside it is invisible — any scheme that
   logs updates of one component concurrently (log order ≠ apply order)
   lets recovery replay overwrites of that component in the wrong order,
   resurrecting overwritten values.  Recovery folds the log into one
   value per component, so it needs log order = apply order only per
   component.  The protocol therefore serializes each component's
   commits through a striped {e commit lock}: component [i] commits
   through stripe [i land (s - 1)], where [s] is the smallest power of
   two ≥ m, capped at [stripes].  A stripe holds the published intent:

     acquire (CAS Free{lsn} -> Held{pid; lsn; i; v})
       -> append Update{lsn} -> sync -> Inner.update i v -> release

   Each stripe draws its own lsns, so lsns rise per stripe, not across
   the log: recovery's lsn filter is per component.  Updates of
   components in different stripes never wait for each other, and a lone
   update pays one stripe's read, CAS and release, as it did with one
   lock.  The append marshals the value into a scratch buffer the
   committing handle owns (several stripes' holders marshal at once) and
   frames it there ([Wal.Make.append_update]): no record and no payload
   string, so a commit allocates only its frame and the stripe's two
   states.

   Log order = apply order per component by construction, and — because
   nothing reaches [Inner] before it is durable — a scan can only ever
   observe durable values, so no completed operation's evidence is ever
   lost (write-ahead invariant).  The committer also writes the value
   into a [committed] array before releasing its stripe, so a holder of
   every stripe sees in that array exactly the state of every lsn it has
   frozen.  A checkpoint takes every stripe as [Sealing], in ascending
   order, seals [committed] as is with the largest of the stripes' next
   lsns, then releases every stripe at that lsn, so every later commit
   draws an lsn above the triple's.  The ascending order cannot deadlock,
   because no update waits while it holds a stripe: the checkpoint an
   update triggers runs after it has released its own.  The seal is
   marshalled into the sealer's scratch; then the log before its triple
   is discarded (the triple's three appends, one sync and one discard,
   plus a read, CAS and release per stripe).  So the log holds the last
   complete triple and the commits since, and a restart reads that, not
   the whole history.  Scans never touch the lock: they stay as
   wait-free as [Inner]'s.  Updates are blocking, like a database log
   latch; a crashed stripe holder blocks that stripe's writers until its
   next incarnation completes the published intent ([resume],
   detectable-operation style).  Only the owner ever completes its
   intent or releases its stripes — helping by other processes is
   deliberately absent, because a helper whose completion races a later
   same-component commit would clobber the newer value.

   A power loss without a crash can eat an appended-but-unsynced record
   from the write cache, after which the committer's own sync would
   cover a hole and acknowledge a non-durable update.  The commit path
   detects an intervening loss with the device's loss counter and
   re-appends; the duplicate lsn a conservative retry can produce is
   collapsed by recovery's per-component lsn filter.

   [config.write_ahead = false] flips to a deliberately unsound late-log
   order (apply to [Inner] first, then append + sync): a scan can then
   observe a value whose record is still volatile, and a power loss makes
   it a committed-then-lost violation.  This mode exists to demonstrate
   that the harness and oracle actually catch recovery bugs — the
   committed witness schedule in schedules/ drives it (EXPERIMENTS.md
   E18). *)

module Metrics = Psnap_sched.Metrics

(* The most stripes an object's commit lock has.  A power of two: a
   component's stripe is a mask of its index. *)
let stripes = 64

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
        (** each handle seals a checkpoint every this many of its own
            commits; 0 = never *)
    write_ahead : bool;  (** [false] = the deliberately unsound late-log
                             mode (see above) *)
  }

  let default_config = { checkpoint_every = 0; write_ahead = true }

  (* A stripe of the commit lock.  [Free] carries the stripe's next lsn
     to draw; [Held] is a published intent (enough for the owner's next
     incarnation to finish the commit); [Sealing] is a checkpoint's hold,
     with the next lsn the stripe had.  All transitions CAS against the
     physically-read value, per the MEM contract. *)
  type 'a lock_state =
    | Free of int
    | Held of { pid : int; lsn : int; index : int; value : 'a }
    | Sealing of { pid : int; next_lsn : int }

  type 'a t = {
    inner : 'a Inner.t;
    dev : St.t;
    locks : 'a lock_state M.ref_ array;  (* the stripes *)
    cfg : config;
    committed : 'a array;  (* [committed.(i)] is guarded by [i]'s stripe *)
    mutable gen : int;  (* guarded by every stripe *)
  }

  type 'a handle = {
    h : 'a Inner.handle;
    pid : int;
    t : 'a t;
    scratch : Wal.scratch;  (* this handle's commits marshal their value
                               into it, its checkpoints their seal *)
    mutable commits : int;  (* this handle's commits since it last sealed:
                               no counter shared by the commit path *)
  }

  let name = "durable(" ^ Inner.name ^ ")"

  let make_locks ~m next_lsn =
    let rec count s = if s >= m || s >= stripes then s else count (2 * s) in
    Array.init (count 1) (fun k ->
        M.make ~name:(Printf.sprintf "durable.lock[%d]" k) (Free next_lsn))

  let stripe t i = t.locks.(i land (Array.length t.locks - 1))

  let build ~config dev ~n values ~next_lsn ~gen =
    {
      inner = Inner.create ~n values;
      dev;
      locks = make_locks ~m:(Array.length values) next_lsn;
      cfg = config;
      committed = Array.copy values;
      gen;
    }

  let create_with ?(config = default_config) ~n init =
    build ~config (St.create ~name:"wal") ~n init ~next_lsn:1 ~gen:0

  let create ~n init = create_with ~n init

  (* Rebuild from a device: one fold over the log repairs the tail, lands
     on the last sealed checkpoint + replayed suffix, and restarts every
     stripe's lsns above everything the log mentions.  Step-free by
     construction — [Inner.create] only allocates cells and log reads are
     recovery-time — so under the simulator the first fiber to recover
     completes the rebuild atomically. *)
  let recover ?(config = default_config) dev ~n init =
    let st, _damage = R.load dev ~init in
    build ~config dev ~n st.Recovery.values ~next_lsn:st.Recovery.next_lsn
      ~gen:st.Recovery.checkpoint_gen

  let storage t = t.dev

  let handle t ~pid =
    { h = Inner.handle t.inner ~pid; pid; t; scratch = Wal.scratch (); commits = 0 }

  let scan h idxs = Inner.scan h.h idxs

  let read h i = Inner.read h.h i

  let last_scan_collects h = Inner.last_scan_collects h.h

  (* Append + barrier, verified against an intervening power loss: if the
     loss counter moved inside the window the record may have been eaten
     from the write cache before the barrier covered it, so re-append.
     The retry can duplicate an lsn that did survive, and so can a resumed
     commit whose dead incarnation had already appended it — harmless,
     recovery applies each lsn of a component once. *)
  let rec append_durably h ~lsn ~index value =
    let t = h.t in
    let l0 = St.losses t.dev in
    W.append_update t.dev h.scratch ~lsn ~pid:h.pid ~index value;
    St.sync t.dev;
    if St.losses t.dev <> l0 then append_durably h ~lsn ~index value

  (* Finish a commit whose intent is published in [lock], possibly one
     inherited from a crashed incarnation of this pid, and release the
     stripe. *)
  let commit h lock ~lsn ~index ~value =
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
      W.append_update t.dev h.scratch ~lsn ~pid:h.pid ~index value;
      St.sync t.dev
    end;
    t.committed.(index) <- value;
    Metrics.incr Metrics.Durable.commits;
    M.write lock (Free (lsn + 1))

  (* The least lsn a stripe may draw next. *)
  let next_of = function
    | Free n | Sealing { next_lsn = n; _ } -> n
    | Held { lsn; _ } -> lsn + 1

  (* Release the stripes a dead checkpoint of this pid left [Sealing].
     That checkpoint may have written its triple and released some
     stripes already, so each is released at the largest next lsn of all
     stripes, which is at least the triple's: a commit drawing an lsn
     below it would be dropped by recovery. *)
  let unseal h =
    let locks = h.t.locks in
    let hi = Array.fold_left (fun hi l -> max hi (next_of (M.read l))) 0 locks in
    Array.iter
      (fun l ->
        match M.read l with
        | Sealing { pid; _ } when pid = h.pid -> M.write l (Free hi)
        | Free _ | Held _ | Sealing _ -> ())
      locks

  (* Take one stripe for a checkpoint; return the next lsn it had.  A
     stripe [Sealing] for this pid is a dead checkpoint's, since a live
     one takes each stripe once, in order: adopt it as it is. *)
  let rec take h lock =
    let cur = M.read lock in
    match cur with
    | Free next_lsn ->
      if M.cas lock ~expected:cur ~desired:(Sealing { pid = h.pid; next_lsn })
      then next_lsn
      else take h lock
    | Sealing { pid; next_lsn } when pid = h.pid -> next_lsn
    | Held { pid; lsn; index; value } when pid = h.pid ->
      commit h lock ~lsn ~index ~value;
      take h lock
    | Held _ | Sealing _ ->
      Domain.cpu_relax ();
      take h lock

  (* Hold every stripe, seal [committed] as is (no scan), release. *)
  let checkpoint_now h =
    let t = h.t in
    let next_lsn = Array.fold_left (fun hi l -> max hi (take h l)) 0 t.locks in
    t.gen <- t.gen + 1;
    C.write t.dev h.scratch ~gen:t.gen ~next_lsn t.committed;
    h.commits <- 0;
    Array.iter (fun l -> M.write l (Free next_lsn)) t.locks

  (* Blocking acquire: spin one stripe read per iteration (the honest
     cost of a log latch — scans never pay it).  A Held/Sealing state
     owned by this pid must be a dead incarnation's: operations of one
     handle are sequential, so a live incarnation can never meet its own
     stripe. *)
  let rec acquire h lock index value =
    let cur = M.read lock in
    match cur with
    | Free lsn ->
      let intent = Held { pid = h.pid; lsn; index; value } in
      if M.cas lock ~expected:cur ~desired:intent then
        commit h lock ~lsn ~index ~value
      else acquire h lock index value
    | Held { pid; lsn; index = i0; value = v0 } when pid = h.pid ->
      commit h lock ~lsn ~index:i0 ~value:v0;
      acquire h lock index value
    | Sealing { pid; _ } when pid = h.pid ->
      (* A checkpoint died with its incarnation: its incomplete triple is
         invisible to recovery, and a complete one is covered by
         [unseal]'s lsn. *)
      unseal h;
      acquire h lock index value
    | Held _ | Sealing _ ->
      Domain.cpu_relax ();
      acquire h lock index value

  (* The checkpoint an update triggers runs after its stripe is
     released. *)
  let update h index value =
    acquire h (stripe h.t index) index value;
    h.commits <- h.commits + 1;
    let every = h.t.cfg.checkpoint_every in
    if every > 0 && h.commits >= every then checkpoint_now h

  (* Completes this pid's published intent and releases the stripes its
     dead checkpoint held, if any.  Recovery bodies call it before
     resuming work after a plain crash–restart (after a power loss there
     is nothing to resume: the stripes died with the memory). *)
  let resume h =
    let sealing = ref false in
    Array.iter
      (fun l ->
        match M.read l with
        | Held { pid; lsn; index; value } when pid = h.pid ->
          commit h l ~lsn ~index ~value
        | Sealing { pid; _ } when pid = h.pid -> sealing := true
        | Free _ | Held _ | Sealing _ -> ())
      h.t.locks;
    if !sealing then unseal h

  let generation t = t.gen
end
