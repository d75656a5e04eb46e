(** Sharded partial snapshot objects: the serving-layer construction that
    turns Theorem 3's locality into horizontal scale.

    [Make (M) (S) (C)] partitions an [m]-component vector across
    [C.shards] independent instances of any partial snapshot [S] built
    over the same memory backend [M].  Updates route to one shard; a
    cross-shard [scan] runs per-shard {e partial} scans, so by the paper's
    locality property (Theorem 3: a partial scan of [r] components costs
    [O(r²)] steps independent of [m], [n] and contention) the cost of a
    sharded scan depends only on the components requested, never on the
    total vector size — which is exactly what makes sharding pay: each
    shard also gets its own announcement structures and active set, so
    updaters only ever help scanners of their own shard.

    {2 Cross-shard atomicity}

    Per-shard sub-scans are individually linearizable, but a multi-shard
    scan could otherwise observe shard A before an update [u_A] and shard
    B after a later update [u_B] — a cut no single linearization point
    explains.  [`Validated] mode closes this with an epoch-validated
    double collect:

    - every shard carries an epoch source, bumped with a wait-free
      fetch&increment by each update, and the update installs the pair
      [(epoch, value)] into its shard {e atomically} (it is one [S.update]
      of the pair);
    - a scan repeats rounds of per-shard sub-scans until two {e
      consecutive} rounds return identical epochs for every requested
      component, then returns the last round's values.

    Epochs are unique per shard, so equal epochs across two rounds mean
    the component did not change between the two sub-scans that read it
    (no ABA).  Every round-[k] sub-scan precedes every round-[k+1]
    sub-scan, so each touched shard is provably constant over an interval
    containing the instant between the two rounds — the whole scan
    linearizes there.  Storing the epoch {e inside} the shard is
    essential: an epoch in a separate register, bumped before or after
    the data write, lets a slow writer place its write inside the scan's
    validation window undetected (docs/MODEL.md §10 gives the
    counterexample).

    Updates stay wait-free (one fetch&increment plus one [S.update]).
    Validated scans are {e lock-free}, not wait-free: a retry happens
    only when a requested component actually changed between rounds, so
    someone else completed an update — and a crashed updater cannot wedge
    the loop, because an interrupted update either installed its epoch or
    never will.  This is the same guarantee-for-cost trade as the
    helping-free [Snapshot.Nonblocking] baseline, bought per scan width
    [r], not per object size [m].

    {2 Relaxed mode}

    [`Relaxed] skips validation: one round, no retries, wait-free if [S]
    is.  Each shard's fragment is still an atomic sub-snapshot, but the
    combined view is {e not} linearizable across shards (reads within one
    shard are mutually consistent; reads from different shards may be
    skewed).  Appropriate when every scan's index set stays inside one
    shard — then it {e is} linearizable — or when per-shard consistency
    is all the application needs (e.g. per-shard aggregation). *)

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
    [last_scan_collects] reports the sub-scan collects summed over every
    round of the most recent scan, so validation retries show up in the
    collect statistics.  Every scan also adds its rounds to the
    [Psnap_sched.Metrics.Serving] counters, so validation retry rates are
    visible in campaign summaries without threading handles around. *)
module Make
    (M : Psnap_mem.Mem_intf.S)
    (S : Psnap_snapshot.Snapshot_intf.S)
    (C : CONFIG) : sig
  include Psnap_snapshot.Snapshot_intf.S

  val last_scan_rounds : 'a handle -> int
  (** Validation rounds of this handle's most recent [scan] (1 for relaxed
      or single-shard scans; ≥ 2 for validated cross-shard scans, where
      every round beyond the second is a retry forced by a concurrent
      update). *)
end
