(** Per-operation step accounting, the paper's contention measures, and
    the registry of per-layer counters.

    A {!sample} records, for one high-level operation instance (a scan, an
    update, a join, ...), how many shared-memory steps its process executed
    on its behalf and the stamp interval during which it was active.  From
    the intervals the contention measures of Section 2 are computed:
    interval contention [C] (operations whose active intervals overlap) and
    point contention [Ċ] (maximum simultaneously active).

    Every counter of the serving, durable, net, reconfig and txn layers is
    declared once, in [metrics.ml], inside its group's module, with its
    name and a help string:
    {[
      let wal_syncs = c "wal_syncs" "storage sync barriers issued"
    ]}
    The name is the counter's key on the console and in JSON summaries, so
    names are unique across groups.  A layer bumps the counter through its
    handle, [Metrics.(incr Durable.wal_syncs)].  Each counter is an
    [int Atomic.t]: counts are exact under the cooperative simulator and
    under real [Domain]s alike. *)

type sample = {
  pid : int;
  kind : string;
  steps : int;  (** own steps of this operation instance *)
  inv : int;  (** stamp at invocation *)
  resp : int;  (** stamp at response *)
}

type recorder

val create : unit -> recorder

(** [measure r ~pid ~kind f] runs [f] as one operation of [pid], recording
    its own-step count and active interval.  Must run inside {!Sim.run}. *)
val measure : recorder -> pid:int -> kind:string -> (unit -> 'a) -> 'a

(** All samples, in recording order. *)
val samples : recorder -> sample list

val by_kind : recorder -> string -> sample list

val total_steps : sample list -> int

val max_steps : sample list -> int

val mean_steps : sample list -> float

(** [overlaps a b] — the active intervals intersect. *)
val overlaps : sample -> sample -> bool

(** Interval contention [C(op)] of [s] among [all] ([s] included, as in the
    paper's definition). *)
val interval_contention : sample list -> sample -> int

(** Point contention [Ċ(op)] of [s]: maximum number of operations of [all]
    simultaneously active at some stamp inside [s]'s interval. *)
val point_contention : sample list -> sample -> int

(** Maxima over all operations satisfying [over] (default: all). *)
val max_interval_contention : ?over:(sample -> bool) -> sample list -> int

val max_point_contention : ?over:(sample -> bool) -> sample list -> int

(** {2 Escape sanitizer}

    The dynamic face of the no-escape discipline (docs/MODEL.md, "Memory
    discipline"): with {!Mem_sim.set_strict}[ true], every simulated access
    is checked to happen at a scheduling point of the current run. *)

type sanitizer = {
  strict : bool;  (** strict mode currently enabled *)
  checked : int;  (** accesses guarded since the last reset *)
  escaped : int;  (** accesses that raised {!Mem_sim.Escape} *)
}

val sanitizer : unit -> sanitizer

val reset_sanitizer : unit -> unit

val pp_sanitizer : Format.formatter -> sanitizer -> unit

(** {2 Counter registry}

    A reader takes {!get} of one counter, or {!read}s a whole group.  A
    reading taken while domains bump the group is exact per counter but
    not an atomic snapshot of the group. *)

type counter

type group

val incr : counter -> unit

val add : counter -> int -> unit

val get : counter -> int

val help : counter -> string

(** The group's counters, in declaration order. *)
val counters : group -> counter list

(** Zero every counter of the group, leaving other groups alone. *)
val reset : group -> unit

(** A group's title and its counters' values, in declaration order. *)
type reading = { group : string; values : (string * int) list }

val read : group -> reading

(** One console line: ["durable: wal_appends=3 wal_syncs=3 ..."]. *)
val pp : Format.formatter -> reading -> unit

(** The reading's JSON fields: each counter's name and decimal value. *)
val fields : reading -> (string * string) list

(** The [Psnap_runtime] serving layer: validation rounds of sharded
    scans (a sharded scan's collects, plus one for a single-shard
    fallback sub-scan), single-shard fallbacks, degraded scans and
    backoff, circuit-breaker transitions and shard heals of the resilient
    supervision layer (docs/MODEL.md §11). *)
module Serving : sig
  val group : group
  val scan_rounds : counter
  val scan_retries : counter
  val scan_fallbacks : counter
  val degraded_scans : counter
  val backoff_steps : counter
  val breaker_opens : counter
  val breaker_half_opens : counter
  val breaker_closes : counter
  val heals_started : counter
  val heals_completed : counter
  val heals_aborted : counter
  val stuck_epochs : counter
end

(** The [Psnap_persist] layer (docs/MODEL.md §13): WAL traffic, commits
    and checkpoints, recoveries with their replay volume, log-tail
    repairs, and power losses seen by the storage backend. *)
module Durable : sig
  val group : group
  val wal_appends : counter
  val wal_syncs : counter
  val wal_bytes : counter
  val commits : counter
  val checkpoints : counter
  val recoveries : counter
  val replayed_updates : counter
  val truncated_bytes : counter
  val torn_records : counter
  val corrupt_records : counter
  val power_losses : counter
end

(** The [Psnap_net] transport and ABD quorum registers (docs/MODEL.md
    §14): message traffic, injected network-fault effects (absorbed
    decisions are not counted), quorum rounds and resends, read
    write-backs and their sound skips, operations that gave up with
    [Unavailable], and the poll-steps spent awaiting quorums. *)
module Net : sig
  val group : group
  val sends : counter
  val delivers : counter
  val net_drops : counter
  val net_dups : counter
  val net_delays : counter
  val net_cuts : counter
  val net_heals : counter
  val quorum_rounds : counter
  val resends : counter
  val writebacks : counter
  val writeback_skips : counter
  val unavailable : counter
  val quorum_ops : counter
  val quorum_wait : counter

  (** The counter of one injected fault kind. *)
  val fault : Event.net_fault_kind -> counter

  (** Mean poll-steps per completed quorum operation. *)
  val mean_quorum_wait : unit -> float
end

(** The [Psnap_net] membership layer (docs/MODEL.md §16): the phases of
    each reconfiguration, epoch fencing and chasing, health-layer
    suspicions and replacements, churn requests, and the unfenced swaps
    of the unsound [naive] mode. *)
module Reconfig : sig
  val group : group
  val reconfigs : counter
  val seals : counter
  val transfers : counter
  val activations : counter
  val stale_rejects : counter
  val epoch_chases : counter
  val suspicions : counter
  val replacements : counter
  val churn_requests : counter
  val naive_swaps : counter
end

(** The [Psnap_txn] MVCC layer (docs/MODEL.md §15): begins, commits, the
    three abort classes, last-writer-wins overwrites, crash-restart
    resumes and pruned versions. *)
module Txn : sig
  val group : group
  val begins : counter
  val ro_commits : counter
  val rw_commits : counter
  val conflicts : counter
  val busy_aborts : counter
  val voluntary_aborts : counter
  val lww_overwrites : counter
  val resumes : counter
  val pruned_versions : counter

  (** Aborted fraction of read-write commit attempts. *)
  val abort_rate : unit -> float
end

(** A typed view of the {!Net} group, for readers that predate the
    registry. *)
type net = {
  sends : int;
  delivers : int;
  drops : int;
  dups : int;
  delays : int;
  cuts : int;
  heals : int;
  rounds : int;
  resends : int;
  writebacks : int;
  writeback_skips : int;
  unavailable : int;
  quorum_ops : int;
  quorum_wait : int;
}

val net : unit -> net

val reset_net : unit -> unit

(** {2 Memory faults}

    Per-kind injection counters from the simulated memory
    ({!Mem_sim.fault_counts}) together with the detection/repair counters
    of the hardened registers ([Psnap_mem.Hardened.stats]) — the two sides
    of a chaos campaign: what the nemesis did, and what the hardening
    caught. *)

type fault_line = {
  kind : Event.fault_kind;
  injected : int;  (** decisions that armed or applied a fault *)
  absorbed : int;  (** decisions with no possible effect *)
  fired : int;  (** armed faults consumed by an access *)
}

type mem_faults = {
  per_kind : fault_line list;  (** one line per kind, in
                                   {!Event.all_fault_kinds} order *)
  hardened : Psnap_mem.Hardened.stats;
}

val mem_faults : unit -> mem_faults

val reset_mem_faults : unit -> unit

(** Total fault decisions that took effect (sum of [injected]). *)
val total_injected : mem_faults -> int

(** Total faults the hardened registers detected (corrupt + stale +
    lost). *)
val total_detected : mem_faults -> int

val pp_mem_faults : Format.formatter -> mem_faults -> unit
