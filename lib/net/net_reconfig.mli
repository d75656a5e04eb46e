(** Online reconfiguration of the replicated snapshot service
    (docs/MODEL.md §16): epoch-fenced membership changes, replica
    replacement and health tracking over {!Net_abd}'s protocol rounds.

    A reconfiguration is two-phase: {e seal} the current configuration
    (collect a read quorum of state snapshots; under fencing every ack
    closes its replica to the old epoch, so no stale quorum can commit
    after the handoff), then {e transfer and activate} (install the
    merged state at a write quorum of the new members under the new
    epoch, durably record the new configuration).  Retired replicas stay
    sealed and drain.  Epochs are write-ahead proposed in the manager's
    durable cell before any replica seals, so a crashed-and-restarted
    manager never reuses an epoch and re-drives an interrupted
    reconfiguration to completion.

    The manager also suspects members via bounded silent-step probe
    timeouts and auto-proposes replacement configurations from the spare
    pool, and serves [Scheduler.Reconfig] decisions (the [config_churn]
    nemesis) as rotation requests.

    {!Naive} mode drops the fence — the split-brain lost write it allows
    is the E21 witness. *)

type mode =
  | Fenced  (** sound: seal before transfer, epoch fencing on *)
  | Naive
      (** deliberately unsound: membership swaps without fencing — a write
          concurrent with the transfer can be lost (E21) *)

type t

(** [attach c] installs a membership manager on cluster [c] (which must
    have been built with [~spares] or [~with_manager]): allocates the
    manager's durable state cell, sets the fencing discipline from
    [mode], enables the client-side configuration chase, and installs the
    [Sim.set_reconfig_dispatcher] hook that turns [Scheduler.Reconfig]
    decisions into churn requests.  [miss_threshold] consecutive missed
    probes (each a single [Ping] attempt polled [probe_budget] steps)
    suspect a member; [max_reconfigs] caps proposals so a storm of
    suspicions cannot thrash the run.
    @raise Invalid_argument if [c] has no manager endpoint. *)
val attach :
  ?mode:mode ->
  ?miss_threshold:int ->
  ?probe_budget:int ->
  ?max_reconfigs:int ->
  Net_abd.sim_cluster ->
  t

(** Clears the reconfiguration-decision dispatcher (run teardown). *)
val detach : t -> unit

val mode : t -> mode

(** The manager's durably recorded current configuration.  Reads the
    cell: call outside the run (pre/post-mortem) or from a fiber. *)
val current_config : t -> Net_abd.config

(** Completed reconfigurations (activations) so far. *)
val reconfig_count : t -> int

(** Pool nodes suspected dead (sticky: never re-admitted), as node
    ids. *)
val suspected_nodes : t -> int list

(** The manager fiber's body — run it at its node's pid
    ([Net_abd.manager_node]); retires when the client sessions close.
    Also its own correct restart body: everything it needs is durable. *)
val manager_body : t -> unit -> unit

(** {2 Loadgen (multicore) variant}

    The control thread is the sequencer — same two-phase protocol, no
    crash model, activation published through the cluster's shared
    configuration cell. *)

type mc_t

val mc_attach : ?mode:mode -> Net_abd.mc_cluster -> mc_t
val mc_current_config : mc_t -> Net_abd.config

(** [mc_reconfigure t ~members] — seal, transfer, activate; returns the
    new configuration.  Retrying with the same [members] after
    [Unavailable] resumes after the last completed phase: once the old
    configuration is sealed, only the install is re-driven (members the
    lost install already reached refuse the old epoch's seal).
    @raise Net_abd.Unavailable when a phase cannot reach its quorum. *)
val mc_reconfigure : mc_t -> members:int list -> Net_abd.config
