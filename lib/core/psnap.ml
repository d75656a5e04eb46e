(** Public facade of the partial-snapshot library.

    The paper's objects — partial snapshots (Section 2.1) and active sets —
    are provided as functors over a shared-memory backend, plus pre-applied
    instances for the two backends:

    - {!Sim_*}: the step-counting simulator (use inside
      {!Sim.run}); this is the backend on which the paper's complexity
      theorems are validated.
    - {!Mc_*}: OCaml 5 atomics, for real multi-domain programs.

    Quick start (multicore backend):
    {[
      module S = Psnap.Mc_fig3
      let t = S.create ~n:4 (Array.make 1024 0)
      (* in domain/process [pid]: *)
      let h = S.handle t ~pid
      let () = S.update h 17 42
      let values = S.scan h [| 3; 17; 512 |]
    ]} *)

(** Shared-memory backends. *)
module Mem = struct
  module type S = Psnap_mem.Mem_intf.S

  module Atomic = Psnap_mem.Mem_atomic
  module Sim = Psnap_sched.Mem_sim
  module Infinite_array = Psnap_mem.Infinite_array

  (** Fault-hardened memories (docs/MODEL.md §9): functors wrapping any
      backend in self-validating / replicated registers. *)
  module Hardened = Psnap_mem.Hardened

  (** Simulator backend wrapped in single-cell self-validation: detects
      [Corrupt]/[Stale_read]/[Lost_write]; cannot survive [Stuck_cell]. *)
  module Sim_selfcheck = Psnap_mem.Hardened.Selfcheck (Psnap_sched.Mem_sim)

  (** Simulator backend behind 3-fold replication: tolerates one faulty
      replica per cell, including a permanently stuck one. *)
  module Sim_replicated =
    Psnap_mem.Hardened.Replicated
      (Psnap_sched.Mem_sim)
      (struct
        let k = 3
      end)
end

(** Simulation kernel: the asynchronous shared-memory machine. *)
module Sim = Psnap_sched.Sim

module Scheduler = Psnap_sched.Scheduler
module Explore = Psnap_sched.Explore
module Metrics = Psnap_sched.Metrics
module Event = Psnap_sched.Event
module Trace = Psnap_sched.Trace
module Shrink = Psnap_sched.Shrink
module Vclock = Psnap_sched.Vclock
module Race = Psnap_sched.Race
module Interval_set = Psnap_interval.Interval_set

(** Histories and correctness checkers. *)
module History = Psnap_history.History

module Lin_check = Psnap_history.Lin_check
module Snapshot_spec = Psnap_history.Snapshot_spec
module Activeset_check = Psnap_history.Activeset_check
module Si_check = Psnap_history.Si_check

(** The active set abstraction and its implementations. *)
module Active_set = struct
  module type S = Psnap_activeset.Activeset_intf.S

  (** Figure 2: fetch&increment + compare&swap; O(1) join/leave. *)
  module Fai_cas = Psnap_activeset.Fai_cas.Make

  (** Figure 2 with the interval list behind a pointer to small registers
      (remark after Theorem 2). *)
  module Fai_cas_small = Psnap_activeset.Fai_cas_small.Make

  (** Baseline: one flag register per process; O(n) getSet. *)
  module Bounded = Psnap_activeset.Bounded.Make

  (** Register-only adaptive active set from a tree of splitters, in the
      spirit of the paper's reference [3] — the building block Figure 1
      prescribes. *)
  module Splitter_tree = Psnap_activeset.Splitter_tree.Make
end

(** The partial snapshot object and its implementations. *)
module Snapshot = struct
  module type S = Psnap_snapshot.Snapshot_intf.S

  module View = Psnap_snapshot.View
  module View_repr = Psnap_snapshot.View_repr
  module Tag = Psnap_snapshot.Tag
  module Collect = Psnap_snapshot.Collect
  module Announce = Psnap_snapshot.Announce

  (** Figure 3 — the paper's main algorithm: local O(r²) scans. *)
  module Fig3 = Psnap_snapshot.Partial_cas.Make

  (** Figure 3 with views in small registers (remark after Theorem 3). *)
  module Fig3_small = Psnap_snapshot.Partial_cas.Make_small

  (** Figure 1 — partial snapshot from registers. *)
  module Fig1 = Psnap_snapshot.Partial_register.Make

  (** Figure 1 with views in small registers (remark after Theorem 1). *)
  module Fig1_small = Psnap_snapshot.Partial_register.Make_small

  (** Afek et al. full snapshot; partial scan = projection (the trivial
      implementation the paper's introduction argues against). *)
  module Afek = Psnap_snapshot.Afek.Make

  (** Jayanti's f-array specialised to snapshots (related work, Section 5):
      O(1) scans, Theta(log m) large-object LL/SC updates. *)
  module Farray = Psnap_snapshot.Farray_snapshot.Make

  (** The helping-free double-collect variant Section 3 starts from:
      linearizable and non-blocking but {e not} wait-free. *)
  module Nonblocking = Psnap_snapshot.Partial_nonblocking.Make

  (** Single-writer/single-scanner restriction (related work [22]): O(1)
      updates, O(r) partial scans. *)
  module Single_scanner = Psnap_snapshot.Single_scanner.Make

  (** One-shot immediate snapshot (Borowsky–Gafni levels; the sibling
      object of reference [4]): views with self-inclusion, containment and
      immediacy, from registers only. *)
  module Immediate = Psnap_snapshot.Immediate.Make

  exception Starved = Psnap_snapshot.Partial_nonblocking.Starved
end

(** The generic f-array (aggregate any [combine] over the components) and
    the LL/SC primitive it is built on. *)
module Farray = Psnap_snapshot.Farray

module Llsc = Psnap_mem.Llsc

(** The serving layer (docs/MODEL.md §10): sharding across independent
    snapshot instances, multicore load generation, latency histograms. *)
module Runtime = struct
  module Placement = Psnap_runtime.Placement
  module Sharded = Psnap_runtime.Sharded
  module Resilient = Psnap_runtime.Resilient
  module Loadgen = Psnap_runtime.Loadgen
  module Histogram = Psnap_runtime.Histogram
end

(** The transactional layer (docs/MODEL.md §15): MVCC snapshot-isolation
    transactions — version chains in snapshot components, begin-timestamps
    plus the active set as the in-flight committer list, read-only
    transactions as single partial scans, first-committer-wins commits
    through a bounded commit descriptor. *)
module Txn = struct
  module type S = Psnap_txn.Txn.S

  module Make = Psnap_txn.Txn.Make

  type mode = Psnap_txn.Txn.mode = Fcw | Lww

  type abort_reason = Psnap_txn.Txn.abort_reason = Conflict of int | Busy

  let mode_to_string = Psnap_txn.Txn.mode_to_string

  let mode_of_string = Psnap_txn.Txn.mode_of_string
end

(** The durability layer (docs/MODEL.md §13): checksummed write-ahead
    log + checkpoints over pluggable storage, power-loss fault injection,
    verified recovery. *)
module Persist = struct
  module Storage = Psnap_persist.Storage
  module Wal = Psnap_persist.Wal
  module Checkpoint = Psnap_persist.Checkpoint
  module Recovery = Psnap_persist.Recovery
  module Durable = Psnap_persist.Durable
end

(* ---- Pre-applied instances: simulator backend ---- *)

module Sim_aset_fai = Psnap_activeset.Fai_cas.Make (Mem.Sim)
module Sim_aset_fai_small = Psnap_activeset.Fai_cas_small.Make (Mem.Sim)
module Sim_aset_bounded = Psnap_activeset.Bounded.Make (Mem.Sim)
module Sim_aset_farray = Psnap_snapshot.Farray_activeset.Make (Mem.Sim)
module Sim_aset_splitter = Psnap_activeset.Splitter_tree.Make (Mem.Sim)
module Sim_fig1 = Psnap_snapshot.Partial_register.Make (Mem.Sim) (Sim_aset_bounded)

(** Figure 1 exactly as Section 3 prescribes: registers only, with an
    {e adaptive} active set in the spirit of [3]. *)
module Sim_fig1_adaptive =
  Psnap_snapshot.Partial_register.Make (Mem.Sim) (Sim_aset_splitter)
module Sim_fig3 = Psnap_snapshot.Partial_cas.Make (Mem.Sim) (Sim_aset_fai)
module Sim_afek = Psnap_snapshot.Afek.Make (Mem.Sim)
module Sim_farray = Psnap_snapshot.Farray_snapshot.Make (Mem.Sim)
module Sim_nonblocking = Psnap_snapshot.Partial_nonblocking.Make (Mem.Sim)
module Sim_single_scanner = Psnap_snapshot.Single_scanner.Make (Mem.Sim)

(** Small-registers variants (the remarks after Theorems 1-3). *)
module Sim_fig1_small =
  Psnap_snapshot.Partial_register.Make_small (Mem.Sim) (Sim_aset_bounded)

module Sim_fig3_small =
  Psnap_snapshot.Partial_cas.Make_small (Mem.Sim) (Sim_aset_fai_small)

(** Ablation: Figure 3's snapshot machinery with the non-adaptive bounded
    active set instead of Figure 2's. *)
module Sim_fig3_bounded_aset =
  Psnap_snapshot.Partial_cas.Make (Mem.Sim) (Sim_aset_bounded)

(** Figure 3 sharded 4 ways (validated cross-shard scans, round-robin
    placement) on the simulator — the instance the chaos campaigns and
    [Lin_check] tests exercise; build other geometries directly with
    {!Runtime.Sharded.Make}. *)
module Sim_sharded_fig3 =
  Psnap_runtime.Sharded.Make (Mem.Sim) (Sim_fig3)
    (struct
      let shards = 4
      let partition = `Round_robin
      let mode = `Validated
    end)

(* ---- Hardened instances: the same algorithms over fault-tolerant
   registers (docs/MODEL.md §9, EXPERIMENTS.md E15).  Logical step counts
   are unchanged; each logical access costs several simulator steps. ---- *)

(** Figure 3 over 3-fold replicated registers: survives seeded memory-fault
    storms that produce non-linearizable histories on {!Sim_fig3}. *)
module Sim_fig3_hardened =
  Psnap_snapshot.Partial_cas.Make (Mem.Sim_replicated)
    (Psnap_activeset.Fai_cas.Make (Mem.Sim_replicated))

(** Figure 1 over 3-fold replicated registers. *)
module Sim_fig1_hardened =
  Psnap_snapshot.Partial_register.Make
    (Mem.Sim_replicated)
    (Psnap_activeset.Bounded.Make (Mem.Sim_replicated))

(** Figure 3 over single-cell self-validating registers: detects and
    repairs corruption without replication (but cannot survive stuck
    cells). *)
module Sim_fig3_selfcheck =
  Psnap_snapshot.Partial_cas.Make (Mem.Sim_selfcheck)
    (Psnap_activeset.Fai_cas.Make (Mem.Sim_selfcheck))

(** The resilient serving layer on the simulator (docs/MODEL.md §11,
    EXPERIMENTS.md E17): Figure 3 over self-validating registers as the
    primary per-shard implementation, healed shards rebuilt on Figure 3
    over 3-fold replicated registers.  Spine cells (shard pointers, epoch
    sources, inflight counters) are plain simulator cells, so the chaos
    campaigns can target them by name (["rshard0.epoch"], ...).  Build
    other geometries and budgets directly with {!Runtime.Resilient.Make}. *)
module Sim_resilient_fig3 =
  Psnap_runtime.Resilient.Make (Mem.Sim) (Sim_fig3_selfcheck)
    (Sim_fig3_hardened)
    (struct
      let shards = 4
      let partition = `Round_robin
      include Psnap_runtime.Resilient.Defaults
    end)

(** Figure 3 made failure-atomically durable under the simulator: a
    write-ahead log + checkpoints on the fault-injectable simulated
    device (docs/MODEL.md §13). *)
module Sim_durable_fig3 =
  Psnap_persist.Durable.Make (Mem.Sim) (Sim_fig3)
    (Psnap_persist.Storage.Sim)

(** The MVCC transactional store over Figure 3 on the simulator — the
    instance the [--impl txn] chaos campaigns, the SI-oracle tests and the
    committed e20 witness drive: version chains in Figure 3 components,
    Figure 2's active set as the in-flight committer list
    (docs/MODEL.md §15, EXPERIMENTS.md E20). *)
module Sim_txn_fig3 = Psnap_txn.Txn.Make (Mem.Sim) (Sim_fig3) (Sim_aset_fai)

(* ---- Distributed backend (docs/MODEL.md §14): ABD quorum registers
   over the crash-prone message transport ---- *)

(** The message-passing layer: deterministic simulated transport with
    injectable link faults, the multicore inbox transport, and the ABD
    quorum-register memory backend over them. *)
module Net = struct
  module Transport = Psnap_net.Net
  module Abd = Psnap_net.Net_abd

  (** Online reconfiguration (docs/MODEL.md §16): epoch-fenced membership
      changes, replica replacement, health-based suspicion. *)
  module Reconfig = Psnap_net.Net_reconfig

  exception Unavailable = Psnap_net.Net_abd.Unavailable
end

(** Figure 3 over replicated ABD quorum registers on the simulator — the
    instance the [--mem net] chaos campaigns drive: every base-object
    access becomes a bounded quorum operation against [--replicas]
    crash-prone replicas, and the whole thing stays linearizable under
    partitions, duplication and reordering (EXPERIMENTS.md E19). *)
module Sim_net_fig3 =
  Psnap_snapshot.Partial_cas.Make (Psnap_net.Net_abd.Sim_mem)
    (Psnap_activeset.Fai_cas.Make (Psnap_net.Net_abd.Sim_mem))

(** Figure 3 over the multicore ABD cluster (replica domains + inbox
    queues) — what the loadgen's [--mem net] drives to price quorum
    round-trips against raw shared memory. *)
module Mc_net_fig3 =
  Psnap_snapshot.Partial_cas.Make (Psnap_net.Net_abd.Mc_mem)
    (Psnap_activeset.Fai_cas.Make (Psnap_net.Net_abd.Mc_mem))

(* ---- Pre-applied instances: multicore (Atomic) backend ---- *)

module Mc_aset_fai = Psnap_activeset.Fai_cas.Make (Mem.Atomic)
module Mc_aset_splitter = Psnap_activeset.Splitter_tree.Make (Mem.Atomic)
module Mc_fig1 =
  Psnap_snapshot.Partial_register.Make (Mem.Atomic)
    (Psnap_activeset.Bounded.Make (Mem.Atomic))

module Mc_fig1_adaptive =
  Psnap_snapshot.Partial_register.Make (Mem.Atomic) (Mc_aset_splitter)

module Mc_fig1_small =
  Psnap_snapshot.Partial_register.Make_small (Mem.Atomic)
    (Psnap_activeset.Bounded.Make (Mem.Atomic))

module Mc_fig3 = Psnap_snapshot.Partial_cas.Make (Mem.Atomic) (Mc_aset_fai)

module Mc_fig3_small =
  Psnap_snapshot.Partial_cas.Make_small (Mem.Atomic)
    (Psnap_activeset.Fai_cas_small.Make (Mem.Atomic))

module Mc_afek = Psnap_snapshot.Afek.Make (Mem.Atomic)
module Mc_farray = Psnap_snapshot.Farray_snapshot.Make (Mem.Atomic)

(** Figure 3 made durable on real atomics, logging through the
    mutex-guarded multicore device — what the loadgen's [--impl durable]
    drives to price durability in the latency histograms. *)
module Mc_durable_fig3 =
  Psnap_persist.Durable.Make (Mem.Atomic) (Mc_fig3) (Psnap_persist.Storage.Mc)

(** The MVCC transactional store over Figure 3 on real atomics — what the
    loadgen's [--impl txn] drives: a zipf read-mostly transaction mix with
    commit/abort/retry accounting (EXPERIMENTS.md E20). *)
module Mc_txn_fig3 = Psnap_txn.Txn.Make (Mem.Atomic) (Mc_fig3) (Mc_aset_fai)
