(** ABD-style multi-writer quorum registers over the message transport
    (docs/MODEL.md §14): a [Psnap_mem.Mem_intf.S] backend whose cells are
    replicated across [replicas] crash-prone replica processes, so every
    snapshot algorithm in the repository runs unchanged against a
    partition-tolerant replicated service.

    Reads and writes follow Attiya–Bar-Noy–Dolev: a Get round to a
    majority, then (for writes, and for reads that saw a lagging replier)
    a Put round installing the maximally-tagged value at a majority —
    the read write-back that makes reads linearizable.  [cas] and
    [fetch_and_add] are forwarded to the register's home replica, which
    applies them atomically against its durable state under per-client
    deduplication (at-most-once despite resends and duplicated
    deliveries); the client replicates the result to a majority before
    returning.  Every phase is bounded (resends with growing poll budgets,
    then {!Unavailable}), and a per-client circuit breaker makes a
    partitioned client fail fast instead of spinning.

    The module also carries the epoch-fenced reconfiguration plumbing of
    docs/MODEL.md §16 — {!config}, the fencing discipline in the replica
    state machine, the client-side configuration chase, and the
    manager-side protocol rounds ({!collect_state}, {!install_state},
    {!probe}) — while the reconfiguration {e policy} (health tracking,
    replacement selection, epoch sequencing, durable manager state) lives
    in {!Net_reconfig}.

    Node numbering: clients are nodes [0 .. clients-1] (client node id =
    simulator pid), the replica pool occupies nodes
    [clients .. clients+pool-1] where [pool = replicas + spares], and a
    cluster built with spares or [~with_manager] places the membership
    manager's endpoint at node [clients+pool] — the ids the network
    nemeses ([Scheduler.partition_storm], ...) and [Net_fault] schedule
    lines refer to. *)

(** Raised when an operation cannot reach a majority within its attempt
    budget, or fails fast on an open circuit breaker.  The operation may
    or may not have taken effect (a quorum write can land without its ack
    arriving) — exactly the "pending operation" a linearizability checker
    must leave open. *)
exception Unavailable of string

type mode =
  | Abd  (** sound: reads write back the maximal value when needed *)
  | Weak
      (** unsound fast read: never write back — exhibits new/old inversion
          under partitions (the E19 witness) *)

(** {2 Configurations}

    An epoch number plus the member list (absolute node ids) serving that
    epoch.  Every data message carries its sender's epoch; a {e fenced}
    replica rejects operations below its epoch (or at its epoch while
    sealed) and stays silent on operations above it, which is what makes
    quorums of different epochs unable to commit concurrently
    (docs/MODEL.md §16). *)

type config = { epoch : int; members : int list }

(** Majority of the member list. *)
val quorum_of : config -> int

val pp_config : Format.formatter -> config -> unit

(** {2 Simulated cluster} *)

type sim_cluster

(** [cluster ~clients ~replicas ()] builds a fresh simulated cluster,
    resets the transport registry ({!Net.Sim.reset}) and installs the
    cluster as the target of {!Sim_mem}.  Replica durable state lives in
    one simulated memory cell per replica, so it survives crash/restart
    of the replica fiber.  [poll_budget] is the per-phase poll-step
    budget of attempt 1 (attempt [k] polls [k] times that);
    [breaker_cooldown] is the number of operations failed fast after an
    [Unavailable] before a half-open probe.

    [spares] extra pool replicas (idle until a reconfiguration promotes
    them) and the manager endpoint are opt-in, so that clusters built
    without them keep the node/oid layout of earlier releases and the
    committed witness schedules replay unchanged.  [spares > 0] implies
    [with_manager]. *)
val cluster :
  ?mode:mode ->
  ?poll_budget:int ->
  ?max_attempts:int ->
  ?breaker_cooldown:int ->
  ?spares:int ->
  ?with_manager:bool ->
  clients:int ->
  replicas:int ->
  unit ->
  sim_cluster

val set_mode : sim_cluster -> mode -> unit

(** Fencing discipline switch: [set_fenced c false] is the deliberately
    unsound naive reconfiguration mode (replicas serve every epoch and
    [Seal] snapshots without sealing) that the E21 witness convicts of a
    split-brain lost write.  On by default. *)
val set_fenced : sim_cluster -> bool -> unit

(** Enables the client-side configuration chase on [Unavailable].  Set by
    [Net_reconfig.attach]; off by default so plain clusters spend no
    steps on discovery broadcasts. *)
val set_reconfig_active : sim_cluster -> bool -> unit

val clients : sim_cluster -> int
val replicas : sim_cluster -> int

(** Pool size: [replicas + spares]. *)
val pool : sim_cluster -> int

(** Configuration 0: epoch 0 over the first [replicas] pool nodes. *)
val initial_config : sim_cluster -> config

(** All pool node ids, [clients .. clients+pool-1]. *)
val pool_nodes : sim_cluster -> int list

(** The manager's node id, if the cluster was built with one. *)
val manager_node : sim_cluster -> int option

(** True while any client session is open — the retirement condition of
    replica fibers and of [Net_reconfig]'s manager fiber.  Reads
    simulated memory: call from a fiber inside a run. *)
val sessions_open : sim_cluster -> bool

(** The epoch client [pid] currently operates under (its cached
    configuration) — harness observability for the chase. *)
val client_epoch : sim_cluster -> pid:int -> int

(** [replica_body c ~index] — fiber body of pool replica [index]; serves
    requests until its inbox is empty and every client session is closed.
    Also the correct restart body after a replica crash.  Spares run the
    same body and idle until promoted. *)
val replica_body : sim_cluster -> index:int -> unit -> unit

(** [wrap_client c ~pid body] — client fiber body: one bootstrap step, the
    workload (an escaping {!Unavailable} is absorbed — the client gives
    up), then closes the session so replicas may retire. *)
val wrap_client : sim_cluster -> pid:int -> (unit -> unit) -> unit -> unit

(** Restart body for a crashed client: (idempotently) closes its
    session. *)
val close_client : sim_cluster -> pid:int -> unit -> unit

(** The quorum-register memory backend of the installed {!cluster}.
    Operations must run inside client fibers wrapped by {!wrap_client};
    outside a run they act directly on pre-run register contents. *)
module Sim_mem : Psnap_mem.Mem_intf.S

(** {2 Manager-side protocol rounds}

    The mechanism under [Net_reconfig]'s policy loop.  All three operate
    on a protocol context; obtain one with {!manager_ctx} (simulated) or
    {!mc_manager_ctx} (loadgen). *)

type ctx

(** The membership manager's protocol endpoint.  Simulated variant: call
    from the manager fiber.
    @raise Failure if the cluster was built without a manager. *)
val manager_ctx : sim_cluster -> ctx

(** A collected state-transfer payload: every register's maximally-tagged
    value, the maximal RMW counter and the merged dedup tables of a read
    quorum. *)
type xfer

(** Number of registers carried by a transfer payload. *)
val xfer_registers : xfer -> int

(** [collect_state ctx ~cfg] — seal-and-collect in one round: broadcast
    [Seal cfg.epoch] to [cfg.members] and merge a read quorum of state
    snapshots.  Under fencing every ack also closed its replica to the
    old epoch, so the merge contains every write that ever reached an ack
    quorum (majorities intersect).  With fencing off this is the naive
    unsealed snapshot the E21 witness convicts.
    @raise Unavailable if no quorum answers within the attempt budget. *)
val collect_state : ctx -> cfg:config -> xfer

(** [install_state ctx ~cfg x] — broadcast [Install] carrying [x] and the
    new configuration to [cfg.members]; returns once a write quorum has
    acked (and merged) it.  Idempotent: retries and duplicates merge to
    the same state.
    @raise Unavailable if no quorum acks within the attempt budget. *)
val install_state : ctx -> cfg:config -> xfer -> unit

(** [probe ctx ~node ~budget] — one bounded [Ping]: a single attempt with
    [budget] poll steps.  [false] is a {e silent-step timeout}, not proof
    of death — [Net_reconfig] suspects a replica only after several
    consecutive misses. *)
val probe : ctx -> node:int -> budget:int -> bool

(** {2 Multicore cluster (loadgen backend)} *)

type mc_cluster

(** [mc_cluster ~clients ~replicas ()] — the wall-clock variant over
    mutex-guarded inboxes; installs itself as the target of {!Mc_mem}.
    Replicas run as domains executing {!mc_replica_body}; client domains
    claim node ids on first operation (at most [clients] of them,
    including the spawning domain if it operates).  [spares] and
    [with_manager] mirror {!cluster}. *)
val mc_cluster :
  ?poll_budget:int ->
  ?max_attempts:int ->
  ?spares:int ->
  ?with_manager:bool ->
  clients:int ->
  replicas:int ->
  unit ->
  mc_cluster

val mc_set_fenced : mc_cluster -> bool -> unit
val mc_set_reconfig_active : mc_cluster -> bool -> unit

(** The active configuration cell: written by the loadgen's control
    thread at activation, read by freshly claimed clients and by parked
    clients at their next operation. *)
val mc_config : mc_cluster -> config

val mc_set_config : mc_cluster -> config -> unit
val mc_manager_node : mc_cluster -> int
val mc_pool_nodes : mc_cluster -> int list

(** The manager's protocol endpoint under the loadgen, for the control
    thread driving {!collect_state}/{!install_state}.  Each receive
    parks at most once, like a client's: a reply wakes it, and so does
    {!mc_wake}.  The caller must run a periodic waker (the loadgen ticks
    every millisecond): it bounds a round facing a dead quorum in wall
    time, so the round can give up cleanly; without one, that round
    blocks. *)
val mc_manager_ctx : mc_cluster -> ctx

val mc_replica_body : mc_cluster -> index:int -> unit -> unit

(** Tell replica domains to retire once their inboxes drain; join them
    afterwards. *)
val mc_stop : mc_cluster -> unit

(** Permanently kill pool replica [index]: its domain body exits at the
    next receive.  The loadgen's replacement for the simulator's
    [replica_death] nemesis. *)
val mc_kill : mc_cluster -> index:int -> unit

(** Broadcast every inbox condition.  Client receives park at most one
    condition-wait, so a periodic [mc_wake] ticker guarantees parked
    clients re-check their attempt budgets (and give up as [Unavailable])
    even while a dead quorum is being replaced. *)
val mc_wake : mc_cluster -> unit

module Mc_mem : Psnap_mem.Mem_intf.S
