(* Multi-version snapshot-isolation transactions over a partial snapshot
   object (docs/MODEL.md §15).

   Each component of the underlying snapshot holds a small version chain
   (newest first); a transaction's begin captures a begin-timestamp from the
   global commit clock plus the set of in-flight committer transaction ids
   served by the active-set machinery, and every read filters a chain by the
   standard MVCC visibility rule: a version [(cts, txid, v)] is visible iff
   [cts <= begin_ts] and [txid] was not in flight at begin.  A read-only
   transaction over a declared read set is a single partial scan — no
   validation, no aborts, exactly the paper's "a partial scan can be viewed
   as a read-only transaction" (Section 6).

   Read-write commits serialize through a commit descriptor installed by
   CAS: validate the write set first-committer-wins (head of each chain
   must still be visible to this transaction's snapshot), draw a commit
   timestamp by fetch&add, then publish each new chain through the snapshot
   update path.  Acquisition is bounded — a committer that cannot install
   the descriptor aborts with [Busy] rather than spinning, so a crashed
   descriptor holder can never hang its peers (aborts are always SI-safe);
   [resume] lets a restarted incarnation of the same pid complete or
   release its dead incarnation's descriptor, mirroring [Durable.resume].

   The deliberately-unsound [Lww] mode skips first-committer-wins
   validation (last writer wins): it exists so the chaos campaigns and the
   committed e20 witness can demonstrate that [Si_check] actually catches
   lost updates (EXPERIMENTS.md E20), the way [--wal-mode late-log] and
   [--net-mode weak] witness their own oracles.

   Chain pruning is watermark-based and hazard-safe: every live transaction
   announces its begin-timestamp in a per-pid slot (write slot, re-read
   clock, re-announce until the clock is stable), and a committer prunes
   each chain it publishes down to the versions newer than the minimum
   announced begin-timestamp plus the newest [n + 1] older ones — at most
   [n] versions above a reader's visible one can be excluded (one committed
   version per in-flight txid per key), so the visible version always
   survives. *)

module Metrics = Psnap_sched.Metrics

type mode = Fcw | Lww

type abort_reason =
  | Conflict of int
      (** first-committer-wins validation failed on this component *)
  | Busy  (** commit-descriptor acquisition exhausted its bounded attempts *)

let mode_to_string = function Fcw -> "fcw" | Lww -> "lww"

let mode_of_string = function
  | "fcw" -> Some Fcw
  | "lww" -> Some Lww
  | _ -> None

module type S = sig
  type 'a t

  type 'a handle

  type 'a txn

  val name : string

  val create : ?mode:mode -> ?lock_attempts:int -> n:int -> 'a array -> 'a t

  val handle : 'a t -> pid:int -> 'a handle

  val mode : 'a t -> mode

  val begin_ : 'a handle -> 'a txn

  val read : 'a txn -> int -> 'a

  val read_many : 'a txn -> int array -> 'a array

  val write : 'a txn -> int -> 'a -> unit

  val commit : 'a txn -> (int, abort_reason) result

  val abort : 'a txn -> unit

  val resume : 'a handle -> 'a Psnap_history.Si_check.obs option

  val txid : 'a txn -> int

  val begin_ts : 'a txn -> int

  val excluded : 'a txn -> int list

  val observation : 'a txn -> 'a Psnap_history.Si_check.obs option
end

module Make
    (M : Psnap_mem.Mem_intf.S)
    (S : Psnap_snapshot.Snapshot_intf.S)
    (A : Psnap_activeset.Activeset_intf.S) =
struct
  type 'a version = { cts : int; vtxid : int; v : 'a }
  (** One committed value; chains are sorted newest-first by [cts]. *)

  type 'a descriptor = {
    dpid : int;
    dtxid : int;
    dbts : int;
    dexcluded : int list;
    dcts : int option;  (** [None] until the commit timestamp is drawn *)
    dwrites : (int * 'a) list;
  }
  (* [dbts]/[dexcluded] replicate the transaction's begin snapshot so that a
     [resume] rolling a dead incarnation's commit forward can report a full
     observation to the SI oracle — the crashed fiber's [txn] record says
     [`Live] forever. *)

  type 'a lock = Free | Held of 'a descriptor

  (* Per-pid announce slot: (txid, begin_ts); idle = (-1, max_int).  The
     txid half feeds readers' excluded sets, the begin_ts half feeds the
     pruning watermark. *)
  let idle_slot = (-1, max_int)

  type 'a t = {
    snap : 'a version list S.t;
    aset : A.t;
    clock : int M.ref_;  (** commit clock; cts = fetch&add + 1 *)
    txid_ctr : int M.ref_;  (** fresh transaction ids, starting at 1 *)
    lock : 'a lock M.ref_;  (** the commit descriptor cell *)
    slots : (int * int) M.ref_ array;
    mode : mode;
    lock_attempts : int;
    n : int;
    m : int;
  }

  type 'a handle = { t : 'a t; pid : int; sh : 'a version list S.handle; ah : A.handle }

  type 'a txn = {
    h : 'a handle;
    txid : int;
    bts : int;
    excluded : int list;  (** txids in flight at begin *)
    mutable writes : (int * 'a) list;  (** newest first; one entry per key *)
    mutable reads : (int * 'a) list;  (** snapshot reads, for the oracle *)
    mutable outcome : [ `Live | `Committed of int option | `Aborted ];
  }

  let name = "txn(" ^ S.name ^ "/" ^ A.name ^ ")"

  let create ?(mode = Fcw) ?(lock_attempts = 128) ~n init =
    let m = Array.length init in
    {
      snap = S.create ~n (Array.map (fun v -> [ { cts = 0; vtxid = 0; v } ]) init);
      aset = A.create ~n ();
      clock = M.make ~name:"txn.clock" 0;
      txid_ctr = M.make ~name:"txn.txid" 1;
      lock = M.make ~name:"txn.lock" Free;
      slots =
        Array.init n (fun p ->
            M.make ~name:(Printf.sprintf "txn.slot%d" p) idle_slot);
      mode;
      lock_attempts;
      n;
      m;
    }

  let handle t ~pid =
    { t; pid; sh = S.handle t.snap ~pid; ah = A.handle t.aset ~pid }

  let mode t = t.mode

  let check_live txn label =
    if txn.outcome <> `Live then
      invalid_arg (Printf.sprintf "Psnap_txn.%s: transaction finished" label)

  (* ---- begin ---- *)

  let begin_ (h : 'a handle) : 'a txn =
    let t = h.t in
    let txid = M.fetch_and_add t.txid_ctr 1 in
    (* Hazard-style announce: publish (txid, b) and re-read the clock until
       it is stable across the announce, so any committer computing a
       pruning watermark after our slot write either sees our begin_ts or
       read the clock before it advanced past it. *)
    let b = ref (M.read t.clock) in
    M.write t.slots.(h.pid) (txid, !b);
    let b' = ref (M.read t.clock) in
    while !b' <> !b do
      b := !b';
      M.write t.slots.(h.pid) (txid, !b);
      b' := M.read t.clock
    done;
    (* The in-flight committer list: active-set members, mapped to their
       announced txids.  Read after the clock settles: anyone who takes a
       commit timestamp after this point exceeds [b] and is invisible by
       timestamp alone. *)
    let members = A.get_set t.aset in
    let excluded =
      List.filter_map
        (fun q ->
          if q = h.pid then None
          else
            let qtx, _ = M.read t.slots.(q) in
            if qtx >= 0 then Some qtx else None)
        members
    in
    Metrics.(incr Txn.begins);
    { h; txid; bts = !b; excluded; writes = []; reads = []; outcome = `Live }

  (* ---- reads ---- *)

  let visible txn chain =
    let rec pick = function
      | [] ->
        (* The pruning watermark provably never outruns an announced
           begin-timestamp; an empty filter would be a pruning bug. *)
        failwith "Psnap_txn: no visible version (pruned below watermark?)"
      | ver :: rest ->
        if ver.cts <= txn.bts && not (List.mem ver.vtxid txn.excluded) then
          ver.v
        else pick rest
    in
    pick chain

  let read txn i =
    check_live txn "read";
    match List.assoc_opt i txn.writes with
    | Some v -> v
    | None ->
      let chain = (S.scan txn.h.sh [| i |]).(0) in
      let v = visible txn chain in
      txn.reads <- (i, v) :: txn.reads;
      v

  (* One partial scan over the declared read set; own writes shadow the
     snapshot per component, results align with the request. *)
  let read_many txn idxs =
    check_live txn "read_many";
    let chains = S.scan txn.h.sh idxs in
    Array.mapi
      (fun k chain ->
        let i = idxs.(k) in
        match List.assoc_opt i txn.writes with
        | Some v -> v
        | None ->
          let v = visible txn chain in
          txn.reads <- (i, v) :: txn.reads;
          v)
      chains

  let write txn i v =
    check_live txn "write";
    if i < 0 || i >= txn.h.t.m then invalid_arg "Psnap_txn.write: bad component";
    txn.writes <- (i, v) :: List.remove_assoc i txn.writes

  (* ---- commit ---- *)

  let clear_slot h = M.write h.t.slots.(h.pid) idle_slot

  let watermark t =
    let w = ref (M.read t.clock) in
    Array.iter
      (fun s ->
        let tx, b = M.read s in
        if tx >= 0 && b < !w then w := b)
      t.slots;
    !w

  (* Keep every version above the watermark plus the newest [n + 1] at or
     below it: a reader skips at most one committed version per excluded
     txid, and there are at most [n] of those above its visible version. *)
  let prune ~n ~watermark chain =
    let rec go kept_below = function
      | [] -> []
      | ver :: rest ->
        if ver.cts > watermark then ver :: go kept_below rest
        else if kept_below <= n then ver :: go (kept_below + 1) rest
        else begin
          Metrics.(add Txn.pruned_versions (1 + List.length rest));
          []
        end
    in
    go 0 chain

  let acquire txn desc =
    let t = txn.h.t in
    let rec try_ attempts =
      if attempts <= 0 then false
      else
        match M.read t.lock with
        | Free ->
          if M.cas t.lock ~expected:Free ~desired:(Held desc) then true
          else try_ (attempts - 1)
        | Held _ -> try_ (attempts - 1)
    in
    try_ t.lock_attempts

  let publish_one h ~cts ~txid ~watermark (i, v) =
    let t = h.t in
    let chain = (S.scan h.sh [| i |]).(0) in
    match chain with
    | { cts = c; _ } :: _ when c >= cts ->
      (* Already published (a resume replaying a dead incarnation's
         descriptor); the descriptor holder is exclusive, so [c > cts] is
         impossible and [c = cts] means this very write landed. *)
      ()
    | chain ->
      S.update h.sh i
        ({ cts; vtxid = txid; v } :: prune ~n:t.n ~watermark chain)

  let finish_abort txn ~joined reason =
    if joined then A.leave txn.h.ah;
    clear_slot txn.h;
    txn.outcome <- `Aborted;
    (match reason with
    | Conflict _ -> Metrics.(incr Txn.conflicts)
    | Busy -> Metrics.(incr Txn.busy_aborts));
    Error reason

  let commit txn =
    check_live txn "commit";
    let t = txn.h.t in
    match txn.writes with
    | [] ->
      (* Read-only: the partial scans already were the transaction. *)
      clear_slot txn.h;
      txn.outcome <- `Committed None;
      Metrics.(incr Txn.ro_commits);
      Ok txn.bts
    | writes -> (
      (* Join the in-flight list before drawing the commit timestamp:
         readers that begin after our fetch&add either exceed it by
         timestamp or find us in the active set and exclude our txid,
         so a half-published write set is never partially visible. *)
      A.join txn.h.ah;
      let desc =
        {
          dpid = txn.h.pid;
          dtxid = txn.txid;
          dbts = txn.bts;
          dexcluded = txn.excluded;
          dcts = None;
          dwrites = writes;
        }
      in
      if not (acquire txn desc) then finish_abort txn ~joined:true Busy
      else
        let idxs = Array.of_list (List.map fst writes) in
        let chains = S.scan txn.h.sh idxs in
        let conflict =
          if t.mode = Lww then None
          else
            let found = ref None in
            Array.iteri
              (fun k chain ->
                if !found = None then
                  match chain with
                  | { cts; vtxid; _ } :: _
                    when cts > txn.bts || List.mem vtxid txn.excluded ->
                    found := Some idxs.(k)
                  | _ -> ())
              chains;
            !found
        in
        match conflict with
        | Some i ->
          let held = M.read t.lock in
          ignore (M.cas t.lock ~expected:held ~desired:Free);
          finish_abort txn ~joined:true (Conflict i)
        | None ->
          if t.mode = Lww then begin
            (* Count the overwrites first-committer-wins would have
               refused: each is a lost-update risk the oracle can catch. *)
            Array.iter
              (fun chain ->
                match chain with
                | { cts; vtxid; _ } :: _
                  when cts > txn.bts || List.mem vtxid txn.excluded ->
                  Metrics.(incr Txn.lww_overwrites)
                | _ -> ())
              chains
          end;
          let cts = 1 + M.fetch_and_add t.clock 1 in
          (* Record the drawn timestamp in the descriptor before touching
             any chain, so a resume can roll the publish forward. *)
          M.write t.lock (Held { desc with dcts = Some cts });
          let w = watermark t in
          List.iter
            (publish_one txn.h ~cts ~txid:txn.txid ~watermark:w)
            writes;
          (* Record the outcome before the unlock/leave/slot-clear sequence
             makes the writes visible.  Scheduler decision points live only
             inside memory operations, so this mutation is crash-atomic
             with the last publish: a post-run harvest of the txn record
             reads [`Committed] whenever any peer can see the writes, and a
             crash landing earlier leaves them excluded (slot + active set)
             until a [resume] — which reports the commit itself. *)
          txn.outcome <- `Committed (Some cts);
          Metrics.(incr Txn.rw_commits);
          let held = M.read t.lock in
          ignore (M.cas t.lock ~expected:held ~desired:Free);
          A.leave txn.h.ah;
          clear_slot txn.h;
          Ok cts)

  let abort txn =
    check_live txn "abort";
    clear_slot txn.h;
    txn.outcome <- `Aborted;
    Metrics.(incr Txn.voluntary_aborts)

  (* ---- crash-restart recovery ---- *)

  (* Called by a restarted incarnation before its first transaction: if the
     dead incarnation crashed holding the commit descriptor, complete the
     publish (the descriptor records the writes and, if drawn, the commit
     timestamp — publishes are idempotent under the head-cts guard) and
     release it; always clear this pid's announce slot.  A crashed
     committer that is never resumed stays in the active set with its
     announce slot set, so its partial writes remain excluded by every
     later snapshot: permanently invisible is effectively aborted, and
     soundness never depends on resume being called.

     Returns the observation of a rolled-forward commit (the dead
     incarnation's [txn] record stays [`Live], so this is the only witness
     the SI oracle gets); [None] when there was nothing to complete.  If
     the crash landed between the outcome mutation and the lock release the
     same commit is reported twice — harvesters dedupe by txid, preferring
     the richer record. *)
  let resume h : 'a Psnap_history.Si_check.obs option =
    let t = h.t in
    let rolled =
      match M.read t.lock with
      | Held d when d.dpid = h.pid ->
        let obs =
          match d.dcts with
          | Some cts ->
            let w = watermark t in
            List.iter (publish_one h ~cts ~txid:d.dtxid ~watermark:w) d.dwrites;
            Some
              {
                Psnap_history.Si_check.txid = d.dtxid;
                pid = d.dpid;
                begin_ts = d.dbts;
                excluded = d.dexcluded;
                committed = true;
                commit_ts = Some cts;
                reads = [];
                writes = d.dwrites;
              }
          | None -> None
        in
        let held = M.read t.lock in
        (match held with
        | Held d' when d'.dpid = h.pid ->
          ignore (M.cas t.lock ~expected:held ~desired:Free)
        | _ -> ());
        Metrics.(incr Txn.resumes);
        obs
      | _ -> None
    in
    clear_slot h;
    rolled

  (* ---- accessors for oracles and harnesses ---- *)

  let txid txn = txn.txid

  let begin_ts txn = txn.bts

  let excluded txn = txn.excluded

  (* The observation record the [Si_check] oracle consumes.  Reads are the
     snapshot reads (own-write hits are not snapshot reads); writes are
     reported only for committed read-write transactions. *)
  let observation txn : 'a Psnap_history.Si_check.obs option =
    match txn.outcome with
    | `Live -> None
    | `Committed cts ->
      Some
        {
          Psnap_history.Si_check.txid = txn.txid;
          pid = txn.h.pid;
          begin_ts = txn.bts;
          excluded = txn.excluded;
          committed = true;
          commit_ts = cts;
          reads = List.rev txn.reads;
          writes = (match cts with None -> [] | Some _ -> List.rev txn.writes);
        }
    | `Aborted ->
      Some
        {
          Psnap_history.Si_check.txid = txn.txid;
          pid = txn.h.pid;
          begin_ts = txn.bts;
          excluded = txn.excluded;
          committed = false;
          commit_ts = None;
          reads = List.rev txn.reads;
          writes = [];
        }
end
