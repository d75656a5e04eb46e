(** Sharded partial snapshot objects: the serving-layer construction that
    turns Theorem 3's locality into horizontal scale.

    [Make (M) (S) (C)] partitions an [m]-component vector across
    [C.shards] independent instances of any partial snapshot [S] built
    over the same memory backend [M].  Updates route to one shard.  Every
    scan but a relaxed cross-shard one starts as a double collect of
    single-component reads:
    [2r] reads when no update interferes, with no announcement and no
    active-set join, so the shards' updaters have nothing to help.  A
    scan across shards repeats collects until two agree; a scan inside
    one shard stops after its first pair and, if an update interfered,
    falls back to one {e partial} scan of that shard (Theorem 3: [O(r²)]
    steps independent of [m], [n] and contention).  Either way the cost
    depends only on the components requested, never on the total vector
    size — and each shard has its own announcement structures and active
    set, so updaters only ever help scanners of their own shard.

    The scan itself is {!Scan}, shared with {!Resilient}, which runs the
    same collects, fast path and sub-scans over its supervised shards.

    {2 Cross-shard atomicity}

    Per-shard sub-scans are individually linearizable, but a multi-shard
    scan could otherwise observe shard A before an update [u_A] and shard
    B after a later update [u_B] — a cut no single linearization point
    explains.  [`Validated] mode closes this with a double collect of
    single-component reads (the Afek et al. baseline of the paper's
    Section 3), validated by the identity of what each component holds:

    - every update allocates a fresh {!box} for its value and installs it
      into its shard with one [S.update], so value and version change
      {e atomically};
    - a scan collects the requested components' boxes with one [S.read]
      each, and repeats collects until two {e consecutive} ones return
      physically equal ([==]) boxes for every requested component, then
      returns the second one's values.

    The argument:
    - each [S.read] is linearizable;
    - each box is installed at most once (every install allocates a new
      one, so a component never returns to a box it held before);
    - the scan holds every box of its first collect until its second
      collect compares it, so the garbage collector cannot reuse that
      address for a later install: [==] in the second collect means that
      no install into that component happened in between;
    - every read of the first collect precedes every read of the second;
    - so, when the two collects agree, each requested component held the
      same box from its read in the first collect to its read in the
      second, an interval containing the instant between the two
      collects, and the scan linearizes there.

    Identity also survives the simulator's memory faults: a [Corrupt]
    fault serves a garbled {e copy} of a stored block, which is never
    [==] to a box read before, where a flipped integer tag could have
    matched an older one.

    The same argument holds for any two consecutive collects, so a scan
    inside one shard uses it too: a scan of [r] components costs [2r]
    reads when no update interferes — no announcement, no active-set
    join, nothing for the shards' updaters to help.  Storing the version
    {e inside} the shard is essential: an epoch in a separate register,
    bumped before or after the data write, lets a slow writer place its
    write inside the scan's validation window undetected
    (docs/MODEL.md §10 gives the counterexample).

    {2 Liveness}

    Updates are one [S.update], so they are wait-free if [S]'s are.

    A scan whose components all live in one shard is {e wait-free} if [S]
    is: its double collect runs once, and if the two collects disagree
    the scan runs one sub-scan of that shard, linearizable on its own,
    and returns that.  With Figure 3 shards it therefore finishes within
    [2 + (2r + 1) = 2r + 3] collects.  It needs no helping for the fast
    path: a scan that returns from its double collect has linearized by
    its own reads, and it never announced, so no updater had to help it.
    Only the fallback announces and joins, and Figure 3's helping covers
    it.

    Cross-shard validated scans are {e lock-free}, not wait-free: a retry
    costs one more collect and happens only when a requested component
    actually changed between two collects, so someone else completed an
    update — and a crashed updater cannot wedge the loop, because an
    interrupted update either installed its box or never will.

    {2 Relaxed mode}

    [`Relaxed] skips validation across shards: one sub-scan per touched
    shard, no retries, wait-free if [S] is.  Each shard's fragment is
    still an atomic sub-snapshot, but the combined view is {e not}
    linearizable across shards (reads within one shard are mutually
    consistent; reads from different shards may be skewed).  A scan
    inside one shard takes the same path as in [`Validated] mode and is
    linearizable.  Appropriate when every scan's index set stays inside
    one shard, or when per-shard consistency is all the application
    needs (e.g. per-shard aggregation). *)

(** {2 The validated scan}

    The double collect above, written once for both sharded fronts:
    [Make] applies it to its plain shards, {!Resilient} to its supervised
    ones (a pointer read per shard per collect, and a budget).  A
    [SOURCE] says how one component's box is read and how one shard is
    sub-scanned. *)

type 'a box = private { v : 'a }
(** What a shard stores for a component: its value, in a block allocated
    by the install that stored it, so its identity is the version. *)

val box : 'a -> 'a box
(** A fresh box: never physically equal to any other. *)

module type SOURCE = sig
  type 'a h

  val reader : 'a h -> int * int -> 'a box
  (** [reader h] is called as each collect begins (rounds and collects
      accounting), and the collect calls the result for each of its
      reads: [reader h (s, j)] is the box at slot [j] of shard [s], one
      linearizable read. *)

  val sub_scan : 'a h -> int -> int array -> 'a box array
  (** [sub_scan h s js] is one partial scan of shard [s]'s slots [js]. *)
end

module Scan (X : SOURCE) : sig
  val settle :
    ?budget:int ->
    ?between:(int -> unit) ->
    'a X.h ->
    (int * int) array ->
    'a box array * int list
  (** Collects until two consecutive ones hold the same box at every
      position or [budget] collects (default unbounded) ran, calling
      [between k] after the [k]th collect when it retries: the last
      collect, and the positions, ascending, whose boxes differ from the
      collect before it (empty when they agree).  Lock-free without a
      budget. *)

  val single_shard : 'a X.h -> int -> (int * int) array -> 'a array
  (** A scan of locations all in shard [s]: two collects, and if they
      disagree one [X.sub_scan] of [s] (counted in
      [Metrics.Serving.scan_fallbacks]).  Wait-free if the sub-scan is. *)

  val shards : (int * int) array -> int list
  (** The shards of the locations, ascending, without repeats. *)

  val positions : (int * int) array -> (int -> bool) -> int array
  (** The positions, ascending, whose shard satisfies the predicate. *)

  val scatter :
    ?parts:(int array * 'a box array) list ->
    'a X.h ->
    (int * int) array ->
    int list ->
    'a array
  (** [scatter ~parts h locs ss] runs one [X.sub_scan] per shard of [ss]
      over the locations it holds, and returns the values of those
      sub-scans and of [parts] (positions paired with the boxes read for
      them), which together cover every position. *)

  val count : int -> unit
  (** Adds a scan's rounds to [Metrics.Serving.scan_rounds], and those
      beyond two to [scan_retries]. *)
end

module type CONFIG = sig
  val shards : int
  (** Number of shards (clamped to [m] at [create], so no shard is
      empty). *)

  val partition : [ `Round_robin | `Range ]
  (** Component placement, defined by {!Placement} (shared with
      {!Resilient}): [`Round_robin] stripes component [i] to shard
      [i mod shards]; [`Range] assigns contiguous blocks. *)

  val mode : [ `Validated | `Relaxed ]
  (** Cross-shard scan consistency; see above. *)
end

(** The result is a full {!Psnap_snapshot.Snapshot_intf.S}: it drops into
    every existing harness — the simulator workloads, the checkers, the
    load generator — exactly like a flat instance.
    [last_scan_collects] reports the most recent scan's collects: the
    double collect's collects for a validated cross-shard scan or a
    single-shard scan that returned from its fast path; [2] plus the
    sub-scan's collects for a single-shard fallback; the sub-scans'
    collects for a relaxed cross-shard scan.  So validation retries and
    fallbacks show up in the collect statistics.  Every scan also adds
    its rounds to the [Psnap_sched.Metrics.Serving] counters
    ([scan_rounds], [scan_retries], and [scan_fallbacks] for each
    fallback), so retry and fallback rates are visible in campaign
    summaries without threading handles around. *)
module Make
    (M : Psnap_mem.Mem_intf.S)
    (S : Psnap_snapshot.Snapshot_intf.S)
    (C : CONFIG) : sig
  include Psnap_snapshot.Snapshot_intf.S

  val last_scan_rounds : 'a handle -> int
  (** Rounds of this handle's most recent [scan], where every round
      beyond the second is a retry forced by a concurrent update:
      - a validated cross-shard scan: its collects, ≥ 2;
      - a single-shard scan: 2 on the fast path, 3 after a fallback (the
        two collects, then the sub-scan);
      - a relaxed cross-shard scan: 1. *)
end
