(** Message-passing substrate for the crash-prone distributed backend
    (docs/MODEL.md §14): [nodes] endpoints connected by directed per-link
    FIFO channels, in two interchangeable transports.

    {!Sim} is the deterministic transport of the cooperative simulator:
    every [send] and every [recv] poll is one scheduler step charged to a
    per-node pseudo-object ("net.n<i>"), so message interleaving rides the
    same replayable decision stream as shared-memory steps, and network
    faults arrive as [Scheduler.Net_fault] decisions — replayable from a
    schedule file and shrinkable with [Shrink.ddmin].  {!Mc} is the
    multicore transport of the loadgen: one mutex-guarded inbox per node,
    no fault injection.

    Fault-effect semantics of {!Sim} (absorbed decisions — effects that
    cannot apply — are no-ops, keeping lenient replay and ddmin sound):
    [Drop_msg] pops the link's oldest message; [Dup_msg] appends a copy of
    the oldest; [Delay_msg] moves the oldest to the back (a reorder);
    [Cut_link] marks the directed link cut — sends still enqueue, but the
    queue is {e held} until [Heal_link], after which held messages drain
    in order. *)

module Sim : sig
  type 'm t

  (** [create ~nodes ()] builds a transport and registers it with the
      global [Net_fault] dispatcher (installed into [Sim.set_net_fault_dispatcher]
      at module initialisation).  Transports accumulate until {!reset}. *)
  val create : nodes:int -> unit -> 'm t

  (** Drop all registered transports and zero the injected/absorbed
      counters.  Call between campaign runs. *)
  val reset : unit -> unit

  (** [(injected, absorbed)] fault-decision totals since the last
      {!reset}.  A decision is absorbed when no registered transport could
      apply its effect (empty link, already-cut link, ...). *)
  val fault_counts : unit -> int * int

  (** All directed links currently holding at least one message, over all
      registered transports — the [~inflight] oracle of the
      [Scheduler.dup_flood] and [Scheduler.lag_spike] nemeses. *)
  val inflight_links : unit -> (int * int) array

  (** [send t ~src ~dst m] enqueues [m] on the [src -> dst] link (one
      scheduler step charged to [src] when inside a run).  Sends to a cut
      link are held, not lost.  Raises [Invalid_argument] on [src = dst]
      or out-of-range nodes. *)
  val send : 'm t -> src:int -> dst:int -> 'm -> unit

  (** [recv t ~self] polls [self]'s incoming links round-robin (one
      scheduler step) and pops the oldest message of the first non-empty,
      non-cut link, if any. *)
  val recv : 'm t -> self:int -> 'm option
end

module Mc : sig
  type 'm t

  val create : nodes:int -> unit -> 'm t

  val send : 'm t -> dst:int -> 'm -> unit
  (** Enqueue and wake the destination's waiter. *)

  val recv_wait : 'm t -> self:int -> should_stop:(unit -> bool) -> 'm option
  (** Block on the inbox condition until a message arrives or
      [should_stop ()] holds; [None] only when stopped with an empty
      inbox.  Wake-ups for a flipped stop flag come from {!wake_all}.
      Only safe when a reply is guaranteed to be in flight — with
      permanent replica failures, prefer {!recv_wait1}. *)

  val recv_wait1 : 'm t -> self:int -> should_stop:(unit -> bool) -> 'm option
  (** Like {!recv_wait} but parks at most one condition-wait: a wake-up
      that finds the inbox empty returns [None] instead of re-parking, so
      a caller's attempt budget bounds the total wait even when the
      awaited replica is permanently dead.  Pair with a periodic
      {!wake_all} ticker to guarantee forward progress. *)

  val wake_all : 'm t -> unit
  (** Broadcast every inbox condition (call after setting a stop flag). *)
end
