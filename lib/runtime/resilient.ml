(* Resilient serving: a supervision layer over sharded partial snapshots
   that makes every operation bounded and honest about degradation.

   See resilient.mli for the API contract and docs/MODEL.md §11 for the
   degradation semantics.  The construction shares Sharded's placement
   (Placement) and its validated scan ([Sharded.Scan]): the collects,
   their agreement test, the single-shard fast path with its sub-scan
   fallback and the per-shard sub-scans all run Sharded's code, applied
   here to a read that goes through the shard pointer.  What this module
   adds is supervision:

   - scans carry a collect budget with exponential backoff between
     disagreeing collects; on exhaustion they return [Degraded] instead
     of retrying forever;
   - each shard has a circuit breaker (closed / open / half-open) fed by
     hardened-register fault counters, validation-failure attribution and
     stuck-epoch detection; open shards are read once per scan, by one
     unvalidated sub-scan, and flagged;
   - a wounded shard is healed: sealed against updates, drained to
     quiescence, copied by one final sub-scan, rebuilt on the replacement
     implementation [R] (hardened memory), and swapped in by CAS.

   Values are stored as Sharded's boxes, a fresh one per install, so
   validation compares identities and is ABA-free even when a shard's
   epoch cell is stuck.  Each update still draws from its shard's
   per-generation epoch cell, only to detect a stuck one (a stuck
   fetch&add returns the same epoch twice), which triggers healing.  A
   heal copies every box as it is, so two collects that agree across a
   generation swap still saw an unchanged component. *)

module Metrics = Psnap_sched.Metrics

module type CONFIG = sig
  val shards : int

  val partition : [ `Round_robin | `Range ]

  val max_rounds : int

  val backoff_base : int

  val backoff_max : int

  val breaker_threshold : int

  val breaker_cooldown : int

  val probe_successes : int

  val heal_quiesce : int
end

module Defaults = struct
  let max_rounds = 6
  let backoff_base = 2
  let backoff_max = 16
  let breaker_threshold = 3
  let breaker_cooldown = 4
  let probe_successes = 2
  let heal_quiesce = 64
end

module Make
    (M : Psnap_mem.Mem_intf.S)
    (S : Psnap_snapshot.Snapshot_intf.S)
    (R : Psnap_snapshot.Snapshot_intf.S)
    (C : CONFIG) =
struct
  let name =
    Printf.sprintf "resilient-%dx%s%s" C.shards S.name
      (match C.partition with `Round_robin -> "" | `Range -> "/range")

  (* A shard instance as one process drives it, whichever implementation
     serves it. *)
  type 'a ops = {
    read : int -> 'a Sharded.box;
    update : int -> 'a Sharded.box -> unit;
    scan : int array -> 'a Sharded.box array;
    collects : unit -> int;  (** the last [scan]'s collects *)
  }

  module Ops (X : Psnap_snapshot.Snapshot_intf.S) = struct
    let of_instance x pid =
      let h = X.handle x ~pid in
      let collects () = X.last_scan_collects h in
      { read = X.read h; update = X.update h; scan = X.scan h; collects }
  end

  module Prim = Ops (S)
  module Healed = Ops (R)

  type 'a shard_state = {
    gen : int;  (** generation: bumped by every completed heal *)
    ops : int -> 'a ops;  (** the instance (primary [S] until healed onto
                              [R]), as process [pid] drives it *)
    epoch : int M.ref_;  (** per-generation epoch source, only read for
                             stuck detection; a heal installs a fresh
                             cell, so a stuck one is left behind *)
  }

  (* The shard pointer.  Both constructors carry the same payload; the
     Sealed state is the heal protocol's write barrier: an updater that
     reads [Sealed] backs off (dropping its inflight token) and helps
     complete the heal.  Every transition installs a freshly allocated
     state record, so pointer CASes never suffer ABA. *)
  type 'a cell_state = Active of 'a shard_state | Sealed of 'a shard_state

  type breaker_state = Closed | Open | Half_open

  (* Supervisor-local bookkeeping (no shared-memory steps): breaker
     state machines are observability/routing hints, not part of the
     linearizability argument — scans of an open shard are still each an
     atomic fragment; the breaker only decides whether cross-shard
     validation includes the shard. *)
  type breaker = {
    mutable bstate : breaker_state;
    mutable strikes : int;  (** consecutive fault evidence while closed *)
    mutable cooldown : int;  (** touches left before open -> half-open *)
    mutable probes : int;  (** consecutive validated probes half-open *)
  }

  type 'a t = {
    ptrs : 'a cell_state M.ref_ array;
    inflight : int M.ref_ array;  (** updates inside their pointer-read ->
                                      install window, per shard *)
    scratch : int M.ref_;  (** backoff target: reads cost steps/yield *)
    breakers : breaker array;
    n : int;
    place : Placement.t;
  }

  type 'a handle = {
    t : 'a t;
    pid : int;
    cache : (int * 'a ops) option array;
        (** per shard: handle for a given generation, rebuilt lazily after
            a heal swaps the instance *)
    last_epoch : int array;  (** newest epoch drawn per shard (this handle) *)
    last_gen : int array;
    stuck_reported : bool array;  (** one heal trigger per (shard, handle) *)
    mutable collects : int;
    mutable rounds : int;
    mutable degraded : bool;
  }

  type 'a outcome =
    | Atomic of 'a array
    | Degraded of {
        values : 'a array;
        suspects : int list;
        failed : (int * 'a) list;
        rounds : int;
      }

  let create ~n init =
    let m = Array.length init in
    if C.max_rounds < 2 then invalid_arg "Resilient.create: max_rounds < 2";
    if C.heal_quiesce < 1 then invalid_arg "Resilient.create: heal_quiesce < 1";
    let place = Placement.make C.partition ~shards:C.shards ~m in
    let ptrs =
      Array.mapi
        (fun s vs ->
          let sub = S.create ~n (Array.map Sharded.box vs) in
          (* drawn epochs start at 1: never collide with the initial 0 *)
          let epoch = M.make ~name:(Printf.sprintf "rshard%d.epoch" s) 1 in
          M.make
            ~name:(Printf.sprintf "rshard%d.ptr" s)
            (Active { gen = 1; ops = Prim.of_instance sub; epoch }))
        (Placement.split place init)
    in
    let nshards = Array.length ptrs in
    let inflight =
      Array.init nshards (fun s ->
          M.make ~name:(Printf.sprintf "rshard%d.inflight" s) 0)
    in
    {
      ptrs;
      inflight;
      scratch = M.make ~name:"resilient.backoff" 0;
      breakers =
        Array.init nshards (fun _ ->
            { bstate = Closed; strikes = 0; cooldown = 0; probes = 0 });
      n;
      place;
    }

  let handle t ~pid =
    let nshards = Array.length t.ptrs in
    {
      t;
      pid;
      cache = Array.make nshards None;
      last_epoch = Array.make nshards (-1);
      last_gen = Array.make nshards 0;
      stuck_reported = Array.make nshards false;
      collects = 0;
      rounds = 0;
      degraded = false;
    }

  (* ---- circuit breakers ---- *)

  (* Every transition lands in a fresh state: strikes and probes restart
     and the cooldown is re-armed.  Counted only when the state changes. *)
  let move b st =
    if b.bstate <> st then
      Metrics.incr
        (match st with
        | Open -> Metrics.Serving.breaker_opens
        | Half_open -> Metrics.Serving.breaker_half_opens
        | Closed -> Metrics.Serving.breaker_closes);
    b.bstate <- st;
    b.strikes <- 0;
    b.probes <- 0;
    b.cooldown <- C.breaker_cooldown

  (* Fault evidence against shard [s]: opens a closed breaker after
     [C.breaker_threshold] consecutive strikes, and a half-open one at
     once (a failed probe). *)
  let strike t s =
    let b = t.breakers.(s) in
    b.strikes <- b.strikes + 1;
    if b.bstate = Half_open
       || (b.bstate = Closed && b.strikes >= C.breaker_threshold)
    then move b Open

  (* A fully validated scan that included shard [s]: clears consecutive
     strikes; counts as a successful probe when half-open. *)
  let breaker_ok t s =
    let b = t.breakers.(s) in
    b.strikes <- 0;
    if b.bstate = Half_open then begin
      b.probes <- b.probes + 1;
      if b.probes >= C.probe_successes then move b Closed
    end

  (* Called once per scan per touched shard: ticks the open-state cooldown
     and says whether THIS scan must skip validating the shard (once the
     cooldown has run out, the next scan probes it half-open). *)
  let breaker_skips t s =
    let b = t.breakers.(s) in
    b.bstate = Open
    && begin
         b.cooldown <- b.cooldown - 1;
         if b.cooldown <= 0 then move b Half_open;
         true
       end

  (* ---- self-healing ---- *)

  (* Completes (or aborts) a heal whose shard pointer is Sealed.  Any
     process may help; all transitions race through CAS on the physically
     unique sealed state, so exactly one helper's outcome lands.

     Quiescence: every update holds an inflight token from before its
     pointer read until after its install, so once the counter reads 0
     with the pointer Sealed, no update can ever land on the old instance
     again (a later updater sees Sealed and backs off).  The final
     sub-scan below therefore captures the shard's exact final state.  If
     the counter never drains within the budget — an updater crashed
     inside its window, or the system is overloaded — the heal is
     aborted and the old instance restored: honest failure over an
     unbounded wait. *)
  let complete_heal t ~pid s =
    match M.read t.ptrs.(s) with
    | Active _ -> ()
    | Sealed st as sealed ->
      let[@psnap.bounded "at most C.heal_quiesce probes"] rec quiet k =
        k > 0 && (M.read t.inflight.(s) = 0 || quiet (k - 1))
      in
      if quiet C.heal_quiesce then begin
        let idxs = Array.init (Placement.size t.place s) Fun.id in
        let rows = (st.ops pid).scan idxs in
        let epoch = M.make ~name:(Printf.sprintf "rshard%d.epoch" s) 1 in
        let st' = Active { gen = st.gen + 1; ops = Healed.of_instance (R.create ~n:t.n rows); epoch } in
        if M.cas t.ptrs.(s) ~expected:sealed ~desired:st' then begin
          move t.breakers.(s) Closed;
          Metrics.(incr Serving.heals_completed)
        end
      end
      else if M.cas t.ptrs.(s) ~expected:sealed ~desired:(Active st) then
        Metrics.(incr Serving.heals_aborted)

  (* Seal shard [s] and drive the heal to completion (or abort).  Raced
     seals help whatever state they find. *)
  let request_heal t ~pid s =
    (match M.read t.ptrs.(s) with
    | Sealed _ -> ()
    | Active st as cur ->
      if M.cas t.ptrs.(s) ~expected:cur ~desired:(Sealed st) then
        Metrics.(incr Serving.heals_started));
    complete_heal t ~pid s

  (* Current Active state of a shard, helping any in-progress heal.
     Bounded in practice: complete_heal always leaves the pointer Active
     (swap or abort), and a re-seal needs a fresh fault trigger. *)
  let[@psnap.bounded
       "complete_heal leaves the pointer Active (swap or abort); re-seals \
        require a fresh fault trigger, charged to the fault budget"] rec
      active_state t ~pid s =
    match M.read t.ptrs.(s) with
    | Active st -> st
    | Sealed _ ->
      complete_heal t ~pid s;
      active_state t ~pid s

  (* ---- handles per (shard, generation) ---- *)

  let handle_for h s (st : 'a shard_state) =
    match h.cache.(s) with
    | Some (g, hd) when g = st.gen -> hd
    | _ ->
      let hd = st.ops h.pid in
      h.cache.(s) <- Some (st.gen, hd);
      hd

  (* ---- update ---- *)

  let[@psnap.bounded
       "retries only while the shard is Sealed; complete_heal unseals it \
        (swap or abort) before the retry"] rec update h i v =
    let t = h.t in
    let s, j = Placement.locate t.place i in
    ignore (M.fetch_and_add t.inflight.(s) 1);
    match M.read t.ptrs.(s) with
    | Sealed _ ->
      (* a heal is draining this shard: drop our token so it can reach
         quiescence, help finish, then retry on the new instance *)
      ignore (M.fetch_and_add t.inflight.(s) (-1));
      complete_heal t ~pid:h.pid s;
      update h i v
    | Active st ->
      let e = M.fetch_and_add st.epoch 1 in
      (* Epoch draws are strictly increasing per generation unless the
         cell stopped applying adds (Stuck_cell).  The box is fresh
         regardless, so we install first — the object stays
         linearizable — and trigger healing after releasing our inflight
         token (healing waits for quiescence, which includes us). *)
      let stuck = st.gen = h.last_gen.(s) && e <= h.last_epoch.(s) in
      if not stuck then begin
        h.last_gen.(s) <- st.gen;
        h.last_epoch.(s) <- e
      end;
      (handle_for h s st).update j (Sharded.box v);
      ignore (M.fetch_and_add t.inflight.(s) (-1));
      if stuck then begin
        Metrics.(incr Serving.stuck_epochs);
        strike t s;
        if not h.stuck_reported.(s) then begin
          h.stuck_reported.(s) <- true;
          request_heal t ~pid:h.pid s
        end
      end

  (* ---- scan ---- *)

  (* Deterministic bounded exponential backoff: [steps] reads of the
     scratch cell — each a scheduling point in the simulator (other
     processes run; the disagreeing update can finish) and a cheap spin on
     real atomics.  Jitter derives from (pid, attempt), so concurrent
     scanners de-synchronize without any randomness to replay. *)
  let backoff h attempt =
    if C.backoff_base > 0 then begin
      let d = min C.backoff_max (C.backoff_base lsl min attempt 16) in
      let d = max 1 d in
      let steps = d + (((h.pid * 31) + (attempt * 17)) mod (d + 1)) in
      Metrics.(add Serving.backoff_steps steps);
      for _ = 1 to steps do
        ignore (M.read h.t.scratch)
      done
    end

  let hardened_evidence () =
    let s = Psnap_mem.Hardened.stats () in
    s.Psnap_mem.Hardened.corrupt_detected + s.stale_detected + s.lost_detected
    + s.retries

  (* Shard [s]'s active instance, with any in-progress heal helped first. *)
  let active h s = handle_for h s (active_state h.t ~pid:h.pid s)

  (* Each collect counts one round; a sub-scan adds its collects only.
     Hardened detections are charged to the shard whose read or sub-scan
     surfaced them, at most one strike per shard per collect — a heuristic
     (other processes run concurrently), but fault-saturated shards
     dominate the deltas they sit on.  A read is the active instance's
     own linearizable read.  A collect reads each touched shard's pointer
     once, at its first read of that shard, and reads the shard's other
     components from the instance it resolved: every read of a collect
     still resolves the pointer after the previous collect ended, which
     is all the double collect needs (docs/MODEL.md §11). *)
  module Core = Sharded.Scan (struct
    type nonrec 'a h = 'a handle

    let reader h =
      h.rounds <- h.rounds + 1;
      h.collects <- h.collects + 1;
      let resolved = Array.make (Array.length h.t.ptrs) None in
      let[@psnap.local_state
           "shards struck in this collect, private to its reads"] struck =
        ref []
      in
      fun (s, j) ->
        let ev0 = hardened_evidence () in
        let o =
          match resolved.(s) with
          | Some o -> o
          | None ->
            let o = active h s in
            resolved.(s) <- Some o;
            o
        in
        let b = o.read j in
        if hardened_evidence () > ev0 && not (List.mem s !struck) then begin
          struck := s :: !struck;
          strike h.t s
        end;
        b

    let sub_scan h s js =
      let ev0 = hardened_evidence () in
      let o = active h s in
      let rows = o.scan js in
      h.collects <- h.collects + o.collects ();
      if hardened_evidence () > ev0 then strike h.t s;
      rows
  end)

  let scan_outcome h idxs =
    let t = h.t in
    h.collects <- 0;
    h.rounds <- 0;
    h.degraded <- false;
    if Array.length idxs = 0 then Atomic [||]
    else begin
      let locs = Array.map (fun i -> Placement.locate t.place i) idxs in
      (* touched shards, ascending; each breaker ticks once per scan *)
      let touched = Core.shards locs in
      let open_ = List.filter (breaker_skips t) touched in
      let validated = List.filter (fun s -> not (List.mem s open_)) touched in
      (* Atomic unless some shard is suspect; every validated shard
         passed unless some component failed validation *)
      let finish ?(suspects = open_) ?(failed = []) values =
        Core.count h.rounds;
        if failed = [] then List.iter (breaker_ok t) validated;
        if suspects = [] then Atomic values
        else begin
          h.degraded <- true;
          Metrics.(incr Serving.degraded_scans);
          Degraded { values; suspects; failed; rounds = h.rounds }
        end
      in
      match validated with
      | [ s ] when open_ = [] -> finish (Core.single_shard h s locs)
      | _ :: _ :: _ ->
        (* Sharded's double collect over the validated components under a
           budget (C.max_rounds collects, then Degraded), then one
           unvalidated sub-scan per open shard *)
        let vpos = Core.positions locs (fun s -> not (List.mem s open_)) in
        let vlocs = Array.map (fun k -> locs.(k)) vpos in
        let cur, dis =
          Core.settle ~budget:C.max_rounds
            ~between:(fun k -> backoff h (k - 1))
            h vlocs
        in
        let suspects =
          List.sort_uniq Int.compare (List.map (fun p -> fst vlocs.(p)) dis)
        in
        List.iter (strike t) suspects;
        finish ~suspects:(open_ @ suspects)
          ~failed:(List.map (fun p -> (idxs.(vpos.(p)), cur.(p).v)) dis)
          (Core.scatter ~parts:[ (vpos, cur) ] h locs open_)
      | _ ->
        (* at most one validated shard beside open ones: one sub-scan of
           each touched shard, linearizable on its own (a validated one
           still counts as a probe) *)
        let vals = Core.scatter h locs touched in
        h.rounds <- 1;
        finish vals
    end

  let scan h idxs =
    match scan_outcome h idxs with
    | Atomic vs -> vs
    | Degraded { values; _ } -> values

  let read h i =
    let s, j = Placement.locate h.t.place i in
    ((active h s).read j).v

  let last_scan_collects h = h.collects

  let last_scan_rounds h = h.rounds

  let last_scan_degraded h = h.degraded

  (* ---- introspection / administration ---- *)

  let nshards t = Array.length t.ptrs

  let breaker_state t s = t.breakers.(s).bstate

  let force_open t s =
    let b = t.breakers.(s) in
    move b Open;
    (* effectively never half-opens on its own: for experiments that hold
       a circuit open for a whole run *)
    b.cooldown <- max_int

  let shard_gen t ~pid:_ s =
    match M.read t.ptrs.(s) with
    | Active st | Sealed st -> st.gen

  let heal = request_heal

  (* The plain Snapshot_intf face: Degraded scans return their fragment
     values like any other scan, flagged only through the metrics counters
     and [last_scan_degraded].  This is what the load generator and other
     S-generic harnesses drive; correctness harnesses that must tell the
     two outcomes apart use [scan_outcome] directly. *)
  module Snap = struct
    type nonrec 'a t = 'a t

    type nonrec 'a handle = 'a handle

    let name = name

    let create = create

    let handle = handle

    let update = update

    let scan = scan

    let read = read

    let last_scan_collects = last_scan_collects
  end
end
