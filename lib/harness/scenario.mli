(** Campaign scenarios: one workload with its oracle, runnable under any
    scheduler by the generic {!Campaign} loop.

    A scenario builds a fresh world per execution — the object under test,
    one body per pid and an incarnation-aware recovery body — and, once the
    run ends, harvests what the processes observed and returns the oracle's
    violations.  It also names the {!Metrics} counter groups it bumps; the
    loop resets them before a campaign and reports them on the console
    and in the JSON summary.

    Everything a committed witness schedule was shrunk against lives here
    (index and value formulas, the sorted scan set, body order, prerun-oid
    resets), so the simulate CLI and the tests replay the very same
    program. *)

open Psnap

(** Shape of the standard snapshot workload: [updaters] processes each
    perform [updates] operations, then [scanners] processes each perform
    [scans] operations over [r] of the [m] components.  Updater pids come
    first. *)
type workload = {
  m : int;
  r : int;
  updaters : int;
  updates : int;
  scanners : int;
  scans : int;
}

(** One execution's processes and its oracle. *)
type 'v world = {
  procs : (unit -> unit) array;
  recover : Sim.recover;
  harvest : unit -> 'v list;
      (** called once after {!Sim.run}: the oracle's violations *)
}

(** Campaign-wide totals over the accounted executions (never the
    shrinker's replays). *)
type totals = {
  runs : int;
  steps : int;
  crashes : int;
  restarts : int;
  violations : int;
  samples : Metrics.sample list list;  (** one list per execution *)
  replayed : bool;  (** the campaign replayed a schedule file *)
}

(** What a scenario reports beyond its counter groups, read when the
    seeded runs end and before the shrinker's oracle runs add to the
    counters. *)
type report = {
  print : unit -> unit;  (** console lines for the scenario's counters *)
  fields : (string * string) list;
      (** JSON keys with rendered values, beyond the loop's common ones *)
  clean : totals -> string;  (** checker line of a violation-free campaign *)
  ok : totals -> bool;
      (** pass conditions beyond the oracle; prints the reason on failure *)
}

type 'v t = {
  impl : string;  (** implementation name, the JSON ["impl"] *)
  shape : string;  (** workload and mode, for the title line *)
  updater_pids : int list;
  scanner_pids : int list;
  inject : seed:int -> Scheduler.t -> Scheduler.t;
      (** scenario-specific nemeses, composed over the loop's *)
  groups : Metrics.group list;
      (** counter groups: reset once per campaign, then reported *)
  build : Metrics.recorder -> 'v world;  (** a fresh world per execution *)
  pp_violation : 'v Fmt.t;
  checked : bool;  (** an oracle runs ([false]: harvest returns [[]]) *)
  expected : string;  (** why the unsound mode violates *)
  report : unit -> report;
}

(** Power-loss injection of a campaign: one blackout at a clock value,
    seeded blackouts, or per seed a baseline plus one blackout at every
    clock value of it. *)
type power = No_power_loss | Power_at of int | Power_storm | Power_sweep

exception Usage of string
(** A scenario or flag value that cannot be run; the message names the
    valid choices. *)

(** {2 The six campaigns} *)

val flat :
  (module Snapshot.S) -> workload -> check:bool -> Snapshot_spec.violation t
(** Any snapshot implementation over simulated memory, its histories
    checked by the observation checker when [check]. *)

val resilient :
  shards:int ->
  stick_epoch:int option ->
  stall_shard:int option ->
  slow_pid:int option ->
  workload ->
  Snapshot_spec.violation t
(** The supervised sharded front: only [Atomic] scans reach the checker,
    every scan must respect the round budget, and with [stick_epoch] a
    shard rebuild must complete and be followed by a validated scan. *)

val durable :
  config:Sim_durable_fig3.config ->
  power:power ->
  workload ->
  Snapshot_spec.violation t
(** The WAL-backed Figure 3 under power losses: restarted fibers rebuild
    the object from the log when a blackout condemned it, or complete
    their published commit intent after a plain crash. *)

val txn : mode:Txn.mode -> workload -> int Si_check.violation t
(** MVCC transactions: updaters run read-modify-write transactions,
    scanners read-only ones; every transaction begun is harvested into
    the snapshot-isolation oracle. *)

val net :
  (module Snapshot.S) ->
  mode:Net.Abd.mode ->
  replicas:int ->
  net_nemesis:string ->
  net_rate:float ->
  workload ->
  check:bool ->
  Snapshot_spec.violation t
(** A snapshot algorithm over ABD quorum registers served by [replicas]
    replica fibers; [Unavailable] operations stay pending. *)

val reconfig :
  mode:Net.Reconfig.mode ->
  replicas:int ->
  spares:int ->
  net_nemesis:string ->
  net_rate:float ->
  reconfig_nemesis:string ->
  replica_deaths:int ->
  workload ->
  check:bool ->
  string t
(** Online reconfiguration: writers bump their own register and read it
    back (lost-write oracle), readers check per-register monotonicity, and
    with [check] each register's history is checked for linearizability. *)

val net_impls : (string * (module Snapshot.S)) list
(** Snapshot algorithms that run over quorum registers. *)
