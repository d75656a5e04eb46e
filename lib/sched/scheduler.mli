(** Scheduling policies: the adversary of the asynchronous model.

    At every step the simulator asks the scheduler which runnable process
    executes its pending shared-memory access.  A policy may also crash a
    process (the process loses its local state; shared memory survives),
    restart a previously crashed process on its recovery function
    (crash–restart fault model), or stop the run (used by the exhaustive
    explorer).  All randomized policies are seeded and replayable. *)

(** What the adversary sees at a decision point. *)
type view = {
  runnable : int array;
      (** pids with a pending step; empty only when every live process has
          crashed but some remain restartable *)
  crashed : int array;
      (** crashed pids eligible for {!Restart} — empty unless the run was
          given a recovery function *)
  clock : int;
  op_of : int -> Event.mem_op option;
      (** kind of the shared access a runnable pid is suspended at; [None]
          for pids that are not runnable *)
  oid_of : int -> int option;
      (** the cell a runnable pid is suspended at — what a memory-fault
          nemesis needs to corrupt "the cell this process is about to CAS";
          [None] for pids that are not runnable *)
  name_of : int -> string option;
      (** the {e name} of the cell a runnable pid is suspended at (the
          label passed to [make ~name]) — what a latency or fault nemesis
          needs to target a structure by name rather than by oid; [None]
          for pids that are not runnable *)
  steps_of : int -> int;
      (** shared-memory steps executed so far by a pid (across all its
          incarnations) *)
}

type decision =
  | Run of int  (** pid takes its pending step *)
  | Crash of int  (** pid halts losing its local state; its pending access
                      never executes *)
  | Restart of int  (** a crashed pid respawns on its recovery function *)
  | Mem_fault of { kind : Event.fault_kind; oid : int }
      (** inject a memory fault into cell [oid] (docs/MODEL.md §9); charged
          to the fault budget like {!Crash}/{!Restart} *)
  | Power_loss
      (** whole-machine blackout (docs/MODEL.md §13): every
          durable-storage device drops the writes buffered since its last
          [sync] barrier {e and} every runnable process halts, as one
          decision — the machine loses power as a whole, so no schedule,
          however shrunk, can leave a survivor computing against pre-loss
          volatile state.  Reboot is ordinary [Restart] decisions; charged
          to the fault budget like {!Crash} *)
  | Net_fault of { kind : Event.net_fault_kind; src : int; dst : int }
      (** inject a network fault into the directed link [src → dst] of the
          simulated message substrate (docs/MODEL.md §14); charged to the
          fault budget like {!Crash}.  Absorbed (recorded, no effect) when
          the link has no matching in-flight message or link state, so the
          decision is always playable under replay and ddmin *)
  | Reconfig
      (** ask the replicated service's membership manager to propose a
          replacement configuration (docs/MODEL.md §16); charged to the
          fault budget like {!Crash}.  Absorbed (recorded, no effect) when
          no manager is listening or the manager is already mid-handoff,
          so the decision is always playable under replay and ddmin *)
  | Stop  (** abandon the run *)

type t = { name : string; pick : view -> decision }

val name : t -> string

val pick : t -> view -> decision

val is_runnable : view -> int -> bool
(** [is_runnable v pid] — [pid] has a pending step in [v]. *)

val is_restartable : view -> int -> bool
(** [is_restartable v pid] — [pid] is crashed and eligible for {!Restart}
    in [v]. *)

(** {2 Decision serialization} — schedule files and shrink reports use the
    textual form ["run 3"], ["crash 0"], ["restart 0"], ["stop"], plus the
    memory-fault verbs ["lose 5"], ["stale 5"], ["corrupt 5"], ["stick 5"]
    (verb + cell oid), the network-fault verbs ["netdrop 0 3"],
    ["netdup 0 3"], ["netdelay 0 3"], ["netcut 0 3"], ["netheal 0 3"]
    (verb + src node + dst node), ["powerloss"] and ["reconfig"], one
    decision per line. *)

val decision_to_string : decision -> string

val decision_of_string : string -> decision
(** @raise Invalid_argument on malformed input *)

val pp_decision : Format.formatter -> decision -> unit

(** {2 Basic policies} *)

(** Strict rotation over the runnable pids. *)
val round_robin : unit -> t

(** Uniform random choice at every step. *)
val random : seed:int -> unit -> t

(** Mostly runs processes other than [victims]; a victim runs only when
    alone or with probability [boost].  Models a slow scanner among fast
    updaters — the starvation scenario motivating the helping mechanism. *)
val starve : victims:int list -> seed:int -> ?boost:float -> unit -> t

(** Probabilistic concurrency testing (Burckhardt et al., ASPLOS 2010):
    random priorities, highest-priority runnable runs, with [depth - 1]
    random priority-demotion points over [expected_steps].  Finds
    depth-[d] ordering bugs with probability ≥ 1/(n·k^(d-1)) per run. *)
val pct : seed:int -> ?depth:int -> ?expected_steps:int -> unit -> t

(** Replays an explicit pid list; [Stop]s when exhausted.  Forced choices
    must be runnable ([Invalid_argument] otherwise). *)
val replay : int list -> t

(** Replays a prefix, then delegates to the fallback policy. *)
val replay_then : int list -> t -> t

(** Replays an explicit decision list (the shape produced by
    [Trace.schedule]); [Stop]s — or delegates to [fallback] — once
    exhausted.  In [lenient] mode (default false) a decision that is not
    currently applicable is skipped instead of raising; the delta-debugging
    shrinker relies on this to evaluate subsequences of a recorded
    schedule. *)
val replay_decisions : ?lenient:bool -> ?fallback:t -> decision list -> t

(** Deterministic burst-rotation adversary: each non-victim in turn gets
    [burst] consecutive steps, then every victim gets [victim_steps].
    Rotating bursts across {e different} processes maximizes the collect
    count of Figure 1's per-process helping rule. *)
val rotation : victims:int list -> burst:int -> victim_steps:int -> unit -> t

(** Random bursts of consecutive steps (geometric, mean [mean_burst]). *)
val bursty : seed:int -> ?mean_burst:int -> unit -> t

(** {2 Nemesis combinators} — fault injection layered over an inner policy.
    A nemesis only issues {!Restart} for pids listed in [view.crashed], so
    composing one with a run that has no recovery function degrades to
    permanent crashes. *)

(** Crashes [pid] the first time the clock reaches [at_clock] while [pid]
    is runnable; the pid stays down forever (halting failure). *)
val with_crash : pid:int -> at_clock:int -> t -> t

(** One deterministic crash–restart cycle: crash [pid] at [crash_at], then
    restart it [restart_after] clock ticks later (a delayed restart — the
    pid stays down while others make progress). *)
val with_crash_restart : pid:int -> crash_at:int -> restart_after:int -> t -> t

(** Seeded crash storm: at every decision point, with probability [rate]
    (default 0.02), crash a uniformly chosen runnable process — at most
    [max_crashes] (default 4) kills per run — restarting each victim
    [restart_after] (default 25) clock ticks later.  Never crashes the
    last runnable process. *)
val crash_storm :
  seed:int -> ?rate:float -> ?max_crashes:int -> ?restart_after:int -> t -> t

(** Targeted fault: crashes [pid] the [nth] (default 1st) time it is
    suspended at a shared access of kind [op] — e.g. [~op:Event.Cas] kills
    an updater between its read and its CAS, the classic lost-update
    window.  With [restart_after] the victim respawns that many clock
    ticks later; without it the crash is permanent. *)
val crash_on_op :
  pid:int -> op:Event.mem_op -> ?nth:int -> ?restart_after:int -> t -> t

(** The seeded chaos nemesis: random kills ([rate], default 0.04; at most
    [max_crashes], default 6) with randomized delayed restarts (up to
    [max_restart_delay], default 30 ticks), preferring victims suspended
    at a CAS with probability 1/2.  All randomness derives from [seed];
    [inner] (default: a seeded {!random} walk) schedules between faults. *)
val chaos :
  seed:int ->
  ?rate:float ->
  ?max_crashes:int ->
  ?max_restart_delay:int ->
  ?inner:t ->
  unit ->
  t

(** {2 Memory-fault nemeses} — fault injection into the {e cells} rather
    than the processes (docs/MODEL.md §9).  Fault decisions are charged to
    the fault budget, recorded in traces, and replay/shrink exactly like
    crashes. *)

(** Seeded memory-fault storm: at every decision point, with probability
    [rate] (default 0.02), inject a fault of a uniformly chosen kind from
    [kinds] (default: all four) into the cell some runnable process is
    suspended at — at most [max_faults] (default 8) per run.
    @raise Invalid_argument if [kinds] is empty. *)
val mem_storm :
  seed:int ->
  ?kinds:Event.fault_kind list ->
  ?rate:float ->
  ?max_faults:int ->
  t ->
  t

(** Targeted memory fault: corrupt the cell [pid] is about to access the
    [nth] (default 1st) time it is suspended at an access of kind [op] —
    e.g. [~op:Event.Cas] garbles the cell inside the process's read-to-CAS
    window.  One shot. *)
val corrupt_on_op : pid:int -> op:Event.mem_op -> ?nth:int -> t -> t

(** {2 Power-loss nemeses} — whole-machine blackouts against durable
    storage (docs/MODEL.md §13).  A power cycle is {!Power_loss} (one
    atomic decision: storage drops all writes buffered since the last
    [sync] and every runnable process halts) followed by an ordinary
    {!Restart} per crashed process — so the whole cycle replays and
    ddmin-shrinks with the existing machinery.  Over a run without a
    recovery function the blackout degrades to a permanent whole-system
    halt. *)

(** One deterministic power loss once the clock reaches [at_clock]:
    un-synced storage writes are dropped and every runnable process halts,
    then every crashed process reboots on its recovery function. *)
val power_loss_at : at_clock:int -> t -> t

(** Seeded power-loss storm: a full power cycle with probability [rate]
    (default 0.005) at every decision point, at most [max_losses] (default
    2) per run. *)
val power_storm : seed:int -> ?rate:float -> ?max_losses:int -> t -> t

(** Targeted memory fault by cell {e name}: once the clock reaches
    [at_clock] (default 0), inject [kind] into the first cell some
    runnable process is suspended at whose name starts with [name_prefix].
    One shot.  E.g. [~kind:Event.Stuck_cell ~name_prefix:"rshard1.epoch"]
    sticks shard 1's epoch source in the resilient serving layer — the
    deterministic trigger for its self-healing path — without depending on
    cell oids. *)
val mem_fault_on_cell :
  kind:Event.fault_kind -> name_prefix:string -> ?at_clock:int -> t -> t

(** {2 Latency-fault nemeses} — slow things down without crashing them
    (docs/MODEL.md §11).  A stalled or slowed process keeps its local
    state; its pending access simply waits.  These nemeses never issue
    fault decisions, so they compose freely with replay and shrinking. *)

(** Inside [\[from_clock, until_clock)], never schedules a process whose
    pending access targets a cell whose name satisfies [matches].  If
    {e every} runnable process is stalled, one runs anyway (no livelock).
    The detour choice is a deterministic function of the clock. *)
val stall_cells :
  matches:(string -> bool) -> from_clock:int -> until_clock:int -> t -> t

(** {!stall_cells} over the spine cells of resilient serving-layer shard
    [shard] (name prefix ["rshard<k>."]): the whole shard stalls — updates
    and sub-scans targeting it stay pending — while other shards keep
    running. *)
val stall_shard : shard:int -> from_clock:int -> until_clock:int -> t -> t

(** Rate-limits [pid] to (at most) every [period]-th (default 8) decision:
    a deterministically, uniformly slow client, as opposed to {!starve}'s
    probabilistic victim.  [pid] still runs when alone. *)
val slow_domain : pid:int -> ?period:int -> t -> t

(** {2 Network-fault nemeses} — fault injection into the {e links} of the
    simulated message-passing substrate (docs/MODEL.md §14).  Net-fault
    decisions are charged to the fault budget, recorded in traces, and
    replay/shrink exactly like crashes; a decision with nothing to wound
    is absorbed, so every recorded schedule stays playable.  Multi-link
    faults (a symmetric partition, a reordering burst) are emitted one
    decision per consultation through an internal queue, so each component
    decision shrinks individually. *)

(** Seeded partition storm: with probability [rate] (default 0.01) at each
    decision point — at most [max_partitions] (default 3) per run, one
    open at a time — isolate a uniformly chosen node of [victims]
    (default: [nodes]) from every node of [nodes] by cutting both
    directions of every link, healing them all [heal_after] (default 80)
    clock ticks later.
    @raise Invalid_argument if [nodes] or [victims] is empty. *)
val partition_storm :
  seed:int ->
  nodes:int list ->
  ?victims:int list ->
  ?rate:float ->
  ?heal_after:int ->
  ?max_partitions:int ->
  t ->
  t

(** One deterministic partition window: cut [victim] off from every node
    of [peers] (both directions) once the clock reaches [at_clock], then
    heal all those links [after] clock ticks later — "replica 2 is
    unreachable from clock 40 to 120". *)
val heal_after : victim:int -> peers:int list -> at_clock:int -> after:int -> t -> t

(** Seeded duplicate-delivery flood: with probability [rate] (default
    0.05) at each decision point — at most [max_dups] (default 16) per run
    — duplicate the oldest in-flight message on a uniformly chosen loaded
    link.  [inflight] lists the directed links currently carrying at least
    one message ([Psnap_net.Net.inflight_links]). *)
val dup_flood :
  seed:int ->
  inflight:(unit -> (int * int) array) ->
  ?rate:float ->
  ?max_dups:int ->
  t ->
  t

(** Seeded lag spikes: with probability [rate] (default 0.02) at each
    decision point — at most [max_spikes] (default 6) per run — emit a
    burst of [burst] (default 4) delay faults against a uniformly chosen
    loaded link, scrambling the delivery order of a whole protocol
    round. *)
val lag_spike :
  seed:int ->
  inflight:(unit -> (int * int) array) ->
  ?rate:float ->
  ?burst:int ->
  ?max_spikes:int ->
  t ->
  t

(** {2 Permanent-failure nemeses} — machines that never come back, and the
    membership churn that repairs the {e service} around them
    (docs/MODEL.md §16). *)

(** Seeded permanent replica deaths: with probability [rate] (default
    0.01) at each decision point — at most [max_deaths] (default 1) per
    run — crash a uniformly chosen runnable pid of [victims], never to be
    restarted.  Never crashes the last runnable process.  Do not compose
    with a nemesis that restarts from [view.crashed] (it would undo the
    permanence).
    @raise Invalid_argument if [victims] is empty. *)
val replica_death :
  seed:int -> victims:int list -> ?rate:float -> ?max_deaths:int -> t -> t

(** Deterministic rolling restart over [victims], one at a time: crash the
    first once the clock reaches [start_at] (default 40), keep each victim
    down [down_for] (default 40) ticks, and crash the next [gap] (default
    40) ticks after the previous one came back — a maintenance-window
    roll.  Requires a recovery function; without one the first crash is
    permanent and the roll stops. *)
val rolling_restart :
  victims:int list -> ?start_at:int -> ?gap:int -> ?down_for:int -> t -> t

(** Seeded configuration churn: with probability [rate] (default 0.004) at
    each decision point — at most [max_reconfigs] (default 3) per run —
    emit a {!Reconfig} decision asking the membership manager to propose a
    replacement configuration even though nothing failed.  Layer it over
    {!partition_storm} to reconfigure mid-partition. *)
val config_churn : seed:int -> ?rate:float -> ?max_reconfigs:int -> t -> t
