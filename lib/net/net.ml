(* Message-passing substrate for the crash-prone distributed backend
   (docs/MODEL.md §14).

   Two transports share one wire model — [nodes] endpoints connected by
   directed per-link FIFO channels:

   - {!Sim} is the deterministic transport of the cooperative simulator.
     Every [send] and every [recv] poll is one scheduler step charged to
     the acting node's pseudo-object ("net.n<i>"), so message interleaving
     is decided by the same replayable decision stream as shared-memory
     steps, and the network nemeses ([Scheduler.partition_storm] and
     friends) inject faults as ordinary decisions that shrink under
     [Shrink.ddmin].

   - {!Mc} is the multicore transport used by the loadgen: one
     mutex-guarded inbox queue per node, no fault injection.

   Fault semantics of {!Sim} (mirroring [Mem_sim]'s absorbed-decision
   discipline — an effect that cannot apply reports [false] and the
   decision is a no-op, which keeps lenient replay and ddmin sound):

   - [Drop_msg src dst]: pop the oldest message of the link, if any.
   - [Dup_msg src dst]: append a copy of the oldest message, if any.
   - [Delay_msg src dst]: move the oldest message to the back (a reorder;
     absorbed when the link holds fewer than two messages).
   - [Cut_link src dst]: mark the directed link cut.  A cut link still
     accepts sends; it HOLDS its queue — nothing is delivered until the
     link heals, at which point held messages drain in order.  (A message
     that must die needs an explicit [Drop_msg].)
   - [Heal_link src dst]: clear the cut mark. *)

module Sim_k = Psnap_sched.Sim
module Event = Psnap_sched.Event
module Metrics = Psnap_sched.Metrics

module Sim = struct
  type 'm link = {
    mutable q : 'm list;  (* oldest first *)
    mutable cut : bool;
  }

  type 'm t = {
    nodes : int;
    links : 'm link array array;  (* links.(src).(dst) *)
    oids : int array;
    names : string array;
    cursor : int array;  (* per-node round-robin receive cursor *)
  }

  (* Registry of live transports, type-erased into closures — the same
     shape as [Storage.Sim]'s device list.  Transports of finished runs
     linger harmlessly until the next [reset]. *)
  let fault_hooks : (Event.net_fault_kind -> src:int -> dst:int -> bool) list ref
      =
    ref []

  let inflight_hooks : (unit -> (int * int) list) list ref = ref []
  let injected = ref 0
  let absorbed = ref 0

  let reset () =
    fault_hooks := [];
    inflight_hooks := [];
    injected := 0;
    absorbed := 0

  let fault_counts () = (!injected, !absorbed)

  let apply_fault t kind ~src ~dst =
    if src < 0 || src >= t.nodes || dst < 0 || dst >= t.nodes || src = dst then
      false
    else
      let l = t.links.(src).(dst) in
      match kind with
      | Event.Drop_msg -> (
          match l.q with
          | _ :: tl ->
              l.q <- tl;
              true
          | [] -> false)
      | Event.Dup_msg -> (
          match l.q with
          | m :: _ ->
              l.q <- l.q @ [ m ];
              true
          | [] -> false)
      | Event.Delay_msg -> (
          match l.q with
          | m :: (_ :: _ as tl) ->
              l.q <- tl @ [ m ];
              true
          | _ -> false)
      | Event.Cut_link ->
          if l.cut then false
          else (
            l.cut <- true;
            true)
      | Event.Heal_link ->
          if l.cut then (
            l.cut <- false;
            true)
          else false

  let inflight t () =
    let acc = ref [] in
    for src = t.nodes - 1 downto 0 do
      for dst = t.nodes - 1 downto 0 do
        if t.links.(src).(dst).q <> [] then acc := (src, dst) :: !acc
      done
    done;
    !acc

  let create ~nodes () =
    if nodes < 1 then invalid_arg "Net.Sim.create: nodes < 1";
    let t =
      {
        nodes;
        links =
          Array.init nodes (fun _ ->
              Array.init nodes (fun _ -> { q = []; cut = false }));
        oids = Array.init nodes (fun _ -> Sim_k.fresh_oid ());
        names = Array.init nodes (Printf.sprintf "net.n%d");
        cursor = Array.make nodes 0;
      }
    in
    fault_hooks := apply_fault t :: !fault_hooks;
    inflight_hooks := inflight t :: !inflight_hooks;
    t

  (* Installed once at module initialisation: [Sim.run] forwards every
     [Net_fault] decision here; we offer it to every registered
     transport. *)
  let dispatch kind ~src ~dst =
    let hit =
      List.fold_left
        (fun acc hook -> if hook kind ~src ~dst then true else acc)
        false !fault_hooks
    in
    if hit then (
      incr injected;
      Metrics.(incr (Net.fault kind)))
    else incr absorbed;
    hit

  let () = Sim_k.set_net_fault_dispatcher dispatch

  let inflight_links () =
    Array.of_list (List.concat_map (fun hook -> hook ()) !inflight_hooks)

  (* Outside a run (instance construction, post-mortem inspection) the
     transport works un-charged; inside a run every send/poll is a step. *)
  let step t node op =
    if Sim_k.current_serial () <> None then
      Sim_k.step { oid = t.oids.(node); obj_name = t.names.(node); op }

  let send t ~src ~dst m =
    if src = dst then invalid_arg "Net.Sim.send: self link";
    if src < 0 || src >= t.nodes || dst < 0 || dst >= t.nodes then
      invalid_arg "Net.Sim.send: node out of range";
    step t src Event.Write;
    let l = t.links.(src).(dst) in
    l.q <- l.q @ [ m ];
    Metrics.(incr Net.sends)

  let recv t ~self =
    if self < 0 || self >= t.nodes then
      invalid_arg "Net.Sim.recv: node out of range";
    step t self Event.Read;
    let start = t.cursor.(self) in
    t.cursor.(self) <- (start + 1) mod t.nodes;
    let rec scan k =
      if k >= t.nodes then None
      else
        let src = (start + k) mod t.nodes in
        let l = t.links.(src).(self) in
        match l.q with
        | m :: tl when not l.cut ->
            l.q <- tl;
            Metrics.(incr Net.delivers);
            Some m
        | _ -> scan (k + 1)
    in
    scan 0
end

module Mc = struct
  type 'm t = {
    nodes : int;
    locks : Mutex.t array;
    conds : Condition.t array;
    inboxes : 'm Queue.t array;
  }

  let create ~nodes () =
    if nodes < 1 then invalid_arg "Net.Mc.create: nodes < 1";
    {
      nodes;
      locks = Array.init nodes (fun _ -> Mutex.create ());
      conds = Array.init nodes (fun _ -> Condition.create ());
      inboxes = Array.init nodes (fun _ -> Queue.create ());
    }

  let send t ~dst m =
    if dst < 0 || dst >= t.nodes then
      invalid_arg "Net.Mc.send: node out of range";
    Mutex.lock t.locks.(dst);
    Queue.push m t.inboxes.(dst);
    Condition.signal t.conds.(dst);
    Mutex.unlock t.locks.(dst);
    Metrics.(incr Net.sends)

  (* Blocking receive: sleep on the inbox condition until a message or
     [should_stop ()]; None only when stopped with an empty inbox.  On an
     oversubscribed host (fewer cores than domains) this is the difference
     between scheduler-quantum ping-pong and microsecond wakeups. *)
  let recv_wait t ~self ~should_stop =
    if self < 0 || self >= t.nodes then
      invalid_arg "Net.Mc.recv_wait: node out of range";
    Mutex.lock t.locks.(self);
    let rec take () =
      match Queue.take_opt t.inboxes.(self) with
      | Some m ->
          Mutex.unlock t.locks.(self);
          Metrics.(incr Net.delivers);
          Some m
      | None ->
          if should_stop () then begin
            Mutex.unlock t.locks.(self);
            None
          end
          else begin
            Condition.wait t.conds.(self) t.locks.(self);
            take ()
          end
    in
    take ()

  (* Single-park receive: at most one condition-wait, so a dead peer can
     only cost the caller one wake-up cycle per call instead of an
     unbounded sleep.  [recv_wait]'s reply-always-in-flight invariant
     breaks once replicas can die permanently; bounded attempt budgets
     above this primitive restore the give-up-as-Unavailable discipline. *)
  let recv_wait1 t ~self ~should_stop =
    if self < 0 || self >= t.nodes then
      invalid_arg "Net.Mc.recv_wait1: node out of range";
    Mutex.lock t.locks.(self);
    let deliver m =
      Mutex.unlock t.locks.(self);
      Metrics.(incr Net.delivers);
      Some m
    in
    match Queue.take_opt t.inboxes.(self) with
    | Some m -> deliver m
    | None ->
        if should_stop () then begin
          Mutex.unlock t.locks.(self);
          None
        end
        else begin
          Condition.wait t.conds.(self) t.locks.(self);
          match Queue.take_opt t.inboxes.(self) with
          | Some m -> deliver m
          | None ->
              Mutex.unlock t.locks.(self);
              None
        end

  (* Wake every waiter (used by a cluster shutting down: set the stop flag
     first, then broadcast). *)
  let wake_all t =
    Array.iteri
      (fun i mu ->
        Mutex.lock mu;
        Condition.broadcast t.conds.(i);
        Mutex.unlock mu)
      t.locks
end
