(** Resilient serving: deadlines, backoff, circuit breakers and
    self-healing shards over sharded partial snapshots.

    [Make (M) (S) (R) (C)] supervises a {!Sharded}-style construction —
    [C.shards] instances of the primary snapshot implementation [S] over
    memory backend [M], placed by {!Placement}, scanned by {!Sharded}'s
    own validated scan ({!Sharded.Scan}) — and makes
    every operation {e bounded and honest}: an operation either completes
    with its full guarantee or returns an explicit, machine-readable
    account of what it could not guarantee.  It never retries without
    bound and never silently serves a skewed cross-shard view.

    {2 Deadlines and backoff}

    A scan whose validated components span two or more shards repeats
    collects — one read of each touched shard's pointer and one
    linearizable read of each component's box ({!Sharded.box}) — until
    two consecutive ones hold the same boxes, at most [C.max_rounds]
    collects.  A scan inside one
    shard whose breaker is not open takes {!Sharded}'s single-shard fast
    path: two collects, and one sub-scan of the shard only if they
    disagree; it reports 2 rounds either way.  A scan with at most one
    validated shard beside open ones is one sub-scan per touched shard.
    Between disagreeing collects
    it backs off — bounded exponential delay with deterministic
    (pid, attempt)-derived jitter, spent as reads of a scratch cell (a
    scheduling point in the simulator, a cheap spin on real atomics).
    On exhaustion the scan returns [Degraded]; see docs/MODEL.md §11 for
    the exact degradation contract.

    {2 Circuit breakers}

    Each shard has a closed / open / half-open breaker fed by three
    evidence streams: hardened-register fault detections
    ({!Psnap_mem.Hardened.stats} deltas around each read or sub-scan, at
    most one strike per shard per collect), the shards of components
    still disagreeing when a scan's budget runs out, and stuck-epoch
    detections from updates.  [C.breaker_threshold] consecutive strikes
    open the circuit; while open, each scan serves the shard by one
    {e unvalidated} sub-scan and reports it in [Degraded.suspects] — a
    stalled or fault-saturated shard cannot drag down scans of healthy
    shards.  After
    [C.breaker_cooldown] scans the breaker half-opens and probes:
    [C.probe_successes] consecutive validated scans re-close it; one
    failed probe reopens it.

    {2 Self-healing}

    A stuck epoch cell (fetch&add that stopped adding) is detected by
    non-monotone epoch draws and triggers a heal: the shard pointer is
    CASed from [Active] to [Sealed] (updaters that see [Sealed] back off
    and help), the healer waits — boundedly, [C.heal_quiesce] probes —
    for in-flight updates to drain, takes one final sub-scan of the
    quiescent instance, rebuilds it on the {e replacement} implementation
    [R] (typically hardened, replicated memory) with a fresh epoch cell,
    and CASes the new instance in with a bumped generation.  Handles
    re-resolve their per-shard sub-handles by generation, so the swap is
    transparent, and boxes are copied as they are, so collects that
    agree across the swap saw unchanged components.  If quiescence is
    never reached (e.g. an updater crashed
    inside its window) the heal {e aborts} and restores the old instance:
    bounded failure, not an unbounded wait.

    Correctness of the swap rests on the inflight protocol: an update
    holds a per-shard inflight token from {e before} it reads the shard
    pointer until {e after} it installs its value, so [Sealed] + counter
    at zero implies no update can ever land on the old instance again,
    and the final sub-scan captures the shard's exact last state.

    Updates remain bounded: even with a stuck epoch cell the update
    installs immediately — its box is fresh, so validation never
    mistakes a changed component for an unchanged one even while epochs
    repeat.  The epoch cell only detects the fault;
    a rebuilt shard's fresh cell starts at 1, because detection compares
    draws within one generation.

    All supervision events are counted in {!Psnap_sched.Metrics}
    ([serving]): rounds, retries, degraded scans, backoff steps, breaker
    transitions, heals, stuck epochs. *)

module type CONFIG = sig
  val shards : int
  (** Number of shards (clamped to [m] at [create]). *)

  val partition : [ `Round_robin | `Range ]
  (** Component placement, as in {!Sharded.CONFIG}. *)

  val max_rounds : int
  (** Scan collect budget, ≥ 2.  A validated cross-shard scan takes at
      most this many collects before returning [Degraded]. *)

  val backoff_base : int
  (** Backoff delay after the first disagreeing collect, in scratch
      reads (= simulator steps).  [0] disables backoff. *)

  val backoff_max : int
  (** Cap on the exponential delay (before jitter, which adds at most the
      same amount again). *)

  val breaker_threshold : int
  (** Consecutive strikes that open a shard's circuit. *)

  val breaker_cooldown : int
  (** Scans touching an open shard before its breaker half-opens. *)

  val probe_successes : int
  (** Consecutive validated scans that re-close a half-open breaker. *)

  val heal_quiesce : int
  (** Inflight-counter probes a healer spends waiting for quiescence
      before aborting the heal, ≥ 1. *)
end

(** The supervision every shipped instance runs: [include] it beside
    [shards] and [partition] to make a [CONFIG]. *)
module Defaults : sig
  val max_rounds : int  (** 6 *)

  val backoff_base : int  (** 2 *)

  val backoff_max : int  (** 16 *)

  val breaker_threshold : int  (** 3 *)

  val breaker_cooldown : int  (** 4 *)

  val probe_successes : int  (** 2 *)

  val heal_quiesce : int  (** 64 *)
end

module Make
    (M : Psnap_mem.Mem_intf.S)
    (S : Psnap_snapshot.Snapshot_intf.S)
    (R : Psnap_snapshot.Snapshot_intf.S)
    (C : CONFIG) : sig
  type 'a t

  type 'a handle

  type breaker_state = Closed | Open | Half_open

  type 'a outcome =
    | Atomic of 'a array
        (** fully validated: linearizable across all touched shards *)
    | Degraded of {
        values : 'a array;
            (** best-effort view: each value was held during the scan,
                and an open shard's values are an atomic fragment of that
                shard, but the whole is NOT guaranteed to be a snapshot *)
        suspects : int list;
            (** open shards, then the shards of [failed] components *)
        failed : (int * 'a) list;
            (** [(component index, last observed value)] for each
                component whose box differed between the last two
                collects; empty when only open breakers degraded it *)
        rounds : int;  (** as [last_scan_rounds] *)
      }

  val name : string

  val create : n:int -> 'a array -> 'a t

  val handle : 'a t -> pid:int -> 'a handle

  val update : 'a handle -> int -> 'a -> unit
  (** Bounded: one inflight increment, one pointer read, one epoch draw,
      one [S.update]/[R.update], one decrement — retried only across a
      heal of the target shard, which itself is bounded. *)

  val scan_outcome : 'a handle -> int array -> 'a outcome
  (** The honest scan: [Atomic] or an explicit [Degraded] account.  At
      most [C.max_rounds] collects.  Also recorded in
      the {!Psnap_sched.Metrics.Serving} counters. *)

  val scan : 'a handle -> int array -> 'a array
  (** [scan_outcome] projected to values (the
      {!Psnap_snapshot.Snapshot_intf.S} shape); check
      [last_scan_degraded] to tell the outcomes apart. *)

  val read : 'a handle -> int -> 'a
  (** The owning shard's linearizable single-component read (helping an
      in-progress heal of that shard first). *)

  val last_scan_collects : 'a handle -> int
  (** The most recent scan's collects, its sub-scans' included. *)

  val last_scan_rounds : 'a handle -> int
  (** The most recent scan's collects outside sub-scans (≤ [C.max_rounds];
      2 for a single-shard scan, also after its fallback sub-scan), or 1
      for a scan served by sub-scans alone. *)

  val last_scan_degraded : 'a handle -> bool
  (** Whether this handle's most recent scan returned [Degraded]. *)

  val nshards : 'a t -> int
  (** Effective shard count ([min C.shards m]). *)

  val breaker_state : 'a t -> int -> breaker_state

  val force_open : 'a t -> int -> unit
  (** Open shard [s]'s breaker and pin it open (cooldown never elapses):
      for experiments that hold a circuit open for a whole run. *)

  val heal : 'a t -> pid:int -> int -> unit
  (** Seal shard [s] and drive a heal to completion or bounded abort.
      Performs shared-memory accesses: call only from inside a running
      process (in the simulator, inside [Sim.run]). *)

  val shard_gen : 'a t -> pid:int -> int -> int
  (** Shard [s]'s current generation (1 initially, +1 per completed
      heal).  One shared read. *)

  (** The plain snapshot face, for [S]-generic harnesses (the load
      generator, the benchmarks): [scan] returns values, with [Degraded]
      visible only through [last_scan_degraded] and the metrics
      counters.  Shares ['a t] and ['a handle] with the outer module, so
      [force_open] / [heal] / [breaker_state] apply to objects created
      through [Snap.create]. *)
  module Snap :
    Psnap_snapshot.Snapshot_intf.S
      with type 'a t = 'a t
       and type 'a handle = 'a handle
end
