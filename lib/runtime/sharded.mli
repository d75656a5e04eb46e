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

    {2 Cross-shard atomicity}

    Per-shard sub-scans are individually linearizable, but a multi-shard
    scan could otherwise observe shard A before an update [u_A] and shard
    B after a later update [u_B] — a cut no single linearization point
    explains.  [`Validated] mode closes this with an epoch-validated
    double collect of single-component reads (the Afek et al. baseline
    of the paper's Section 3):

    - every shard carries an epoch source, bumped with a wait-free
      fetch&increment by each update, and the update installs the pair
      [(epoch, value)] into its shard {e atomically} (it is one [S.update]
      of the pair);
    - a scan collects the requested components' pairs with one [S.read]
      each, and repeats collects until two {e consecutive} ones return
      identical epochs for every requested component, then returns the
      second one's values.

    The argument:
    - each [S.read] is linearizable;
    - each epoch is installed at most once per component (epochs are
      unique per shard, and a component never returns to an old pair);
    - every read of the first collect precedes every read of the second;
    - so, when the two collects agree, each requested component held the
      same pair from its read in the first collect to its read in the
      second, an interval containing the instant between the two
      collects, and the scan linearizes there.

    The same argument holds for any two consecutive collects, so a scan
    inside one shard uses it too: a scan of [r] components costs [2r]
    reads when no update interferes — no announcement, no active-set
    join, nothing for the shards' updaters to help.  Storing the epoch
    {e inside} the shard is essential: an epoch in a separate register,
    bumped before or after the data write, lets a slow writer place its
    write inside the scan's validation window undetected
    (docs/MODEL.md §10 gives the counterexample).

    {2 Liveness}

    Updates stay wait-free (one fetch&increment plus one [S.update]).

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
    interrupted update either installed its epoch or never will.

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

module type CONFIG = sig
  val shards : int
  (** Number of shards (clamped to [m] at [create], so no shard is
      empty). *)

  val partition : [ `Round_robin | `Range ]
  (** Component placement: [`Round_robin] stripes component [i] to shard
      [i mod shards] (spreads hot low-numbered keys); [`Range] assigns
      contiguous blocks of [m / shards] components (preserves locality of
      range scans: a narrow range scan touches one shard). *)

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
