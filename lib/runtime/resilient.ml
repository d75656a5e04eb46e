(* Resilient serving: a supervision layer over sharded partial snapshots
   that makes every operation bounded and honest about degradation.

   See resilient.mli for the API contract and docs/MODEL.md §11 for the
   degradation semantics.  The construction shares Sharded's placement
   (Placement) and its cross-shard validation: per-shard snapshot
   instances, per-shard epochs installed with each value, and a scan that
   double-collects single-component reads until two collects agree.  It
   adds three mechanisms on top:

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

   Values are stored as [((epoch, nonce), v)].  Epochs come from a
   per-shard, per-generation fetch&increment cell and give scans their
   ABA-free validation (as in Sharded); the nonce is drawn from a
   step-free fetch&add counter and makes tags unique even when the epoch
   cell is stuck (a stuck fetch&add returns the same epoch twice — the
   nonce keeps the two updates distinguishable, so validation never
   silently accepts a changed component, and the non-monotone draw is
   itself the detector that triggers healing).  A heal copies every tag
   with its value, so two collects that agree across a generation swap
   still saw an unchanged component. *)

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

module Make
    (M : Psnap_mem.Mem_intf.S)
    (S : Psnap_snapshot.Snapshot_intf.S)
    (R : Psnap_snapshot.Snapshot_intf.S)
    (C : CONFIG) =
struct
  let name =
    Printf.sprintf "resilient-%dx%s%s" C.shards S.name
      (match C.partition with `Round_robin -> "" | `Range -> "/range")

  (* Nonce source: a stdlib fetch&add counter, shared by every domain, so
     no two updates ever draw the same nonce.  It is supervisor
     bookkeeping, not shared algorithm state: it costs no simulator step,
     like the hardened registers' tag nonces. *)
  let nonce_counter = Atomic.make 0

  let next_nonce () = Atomic.fetch_and_add nonce_counter 1 + 1

  type tag = int * int  (** (epoch, nonce) *)

  type 'a impl =
    | Prim of (tag * 'a) S.t  (** original shard instance *)
    | Healed of (tag * 'a) R.t  (** post-heal replacement instance *)

  type 'a shard_state = {
    gen : int;  (** generation: bumped by every completed heal *)
    impl : 'a impl;
    epoch : int M.ref_;  (** per-generation epoch source; a heal installs
                             a fresh cell, so a stuck one is left behind *)
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
    m : int;
  }

  type 'a shard_handle = HP of (tag * 'a) S.handle | HR of (tag * 'a) R.handle

  type 'a handle = {
    t : 'a t;
    pid : int;
    cache : (int * 'a shard_handle) option array;
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
        failed : (int * int) list;
        rounds : int;
      }

  let create ~n init =
    let m = Array.length init in
    if m = 0 then invalid_arg "Resilient.create: empty";
    if C.shards < 1 then invalid_arg "Resilient.create: shards < 1";
    if C.max_rounds < 2 then invalid_arg "Resilient.create: max_rounds < 2";
    if C.heal_quiesce < 1 then invalid_arg "Resilient.create: heal_quiesce < 1";
    let place = Placement.make C.partition ~shards:C.shards ~m in
    let nshards = Placement.nshards place in
    let ptrs =
      Array.init nshards (fun s ->
          let sub =
            S.create ~n
              (Array.init (Placement.size place s) (fun j ->
                   ((0, 0), init.(Placement.global place s j))))
          in
          (* drawn epochs start at 1: never collide with the initial 0 *)
          let epoch = M.make ~name:(Printf.sprintf "rshard%d.epoch" s) 1 in
          M.make
            ~name:(Printf.sprintf "rshard%d.ptr" s)
            (Active { gen = 1; impl = Prim sub; epoch }))
    in
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
      m;
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

  let strike t s =
    let b = t.breakers.(s) in
    match b.bstate with
    | Open -> ()
    | Half_open ->
      (* a failed probe reopens immediately *)
      b.bstate <- Open;
      b.cooldown <- C.breaker_cooldown;
      b.probes <- 0;
      Metrics.(incr Serving.breaker_opens)
    | Closed ->
      b.strikes <- b.strikes + 1;
      if b.strikes >= C.breaker_threshold then begin
        b.bstate <- Open;
        b.cooldown <- C.breaker_cooldown;
        Metrics.(incr Serving.breaker_opens)
      end

  (* A fully validated scan that included shard [s]: clears consecutive
     strikes; counts as a successful probe when half-open. *)
  let breaker_ok t s =
    let b = t.breakers.(s) in
    match b.bstate with
    | Closed -> b.strikes <- 0
    | Half_open ->
      b.probes <- b.probes + 1;
      if b.probes >= C.probe_successes then begin
        b.bstate <- Closed;
        b.strikes <- 0;
        b.probes <- 0;
        Metrics.(incr Serving.breaker_closes)
      end
    | Open -> ()

  (* Called once per scan per touched shard: ticks the open-state cooldown
     and says whether THIS scan must skip validating the shard. *)
  let breaker_skips t s =
    let b = t.breakers.(s) in
    match b.bstate with
    | Closed | Half_open -> false
    | Open ->
      if b.cooldown > 0 then b.cooldown <- b.cooldown - 1;
      if b.cooldown <= 0 then begin
        (* next scan probes it half-open; this one still skips *)
        b.bstate <- Half_open;
        b.probes <- 0;
        Metrics.(incr Serving.breaker_half_opens)
      end;
      true

  let reclose t s =
    let b = t.breakers.(s) in
    if b.bstate <> Closed then Metrics.(incr Serving.breaker_closes);
    b.bstate <- Closed;
    b.strikes <- 0;
    b.probes <- 0;
    b.cooldown <- 0

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
      let budget = ref C.heal_quiesce in
      let quiet = ref false in
      while (not !quiet) && !budget > 0 do
        decr budget;
        if M.read t.inflight.(s) = 0 then quiet := true
      done;
      if not !quiet then begin
        if M.cas t.ptrs.(s) ~expected:sealed ~desired:(Active st) then
          Metrics.(incr Serving.heals_aborted)
      end
      else begin
        let idxs = Array.init (Placement.size t.place s) Fun.id in
        let rows =
          match st.impl with
          | Prim p -> S.scan (S.handle p ~pid) idxs
          | Healed r -> R.scan (R.handle r ~pid) idxs
        in
        let maxe = Array.fold_left (fun a ((e, _), _) -> max a e) 0 rows in
        let epoch =
          M.make ~name:(Printf.sprintf "rshard%d.epoch" s) (maxe + 1)
        in
        let st' = Active { gen = st.gen + 1; impl = Healed (R.create ~n:t.n rows); epoch } in
        if M.cas t.ptrs.(s) ~expected:sealed ~desired:st' then begin
          reclose t s;
          Metrics.(incr Serving.heals_completed)
        end
      end

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
      let hd =
        match st.impl with
        | Prim p -> HP (S.handle p ~pid:h.pid)
        | Healed r -> HR (R.handle r ~pid:h.pid)
      in
      h.cache.(s) <- Some (st.gen, hd);
      hd

  (* ---- update ---- *)

  let[@psnap.bounded
       "retries only while the shard is Sealed; complete_heal unseals it \
        (swap or abort) before the retry"] rec update h i v =
    let t = h.t in
    if i < 0 || i >= t.m then invalid_arg "Resilient.update: index";
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
         cell stopped applying adds (Stuck_cell).  The nonce keeps the
         update's tag unique regardless, so we install first — the object
         stays linearizable — and trigger healing after releasing our
         inflight token (healing waits for quiescence, which includes
         us). *)
      let stuck = st.gen = h.last_gen.(s) && e <= h.last_epoch.(s) in
      h.last_gen.(s) <- st.gen;
      h.last_epoch.(s) <- max e h.last_epoch.(s);
      (match handle_for h s st with
      | HP hp -> S.update hp j ((e, next_nonce ()), v)
      | HR hr -> R.update hr j ((e, next_nonce ()), v));
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

  (* One component's [(tag, value)] pair: the active instance's own
     linearizable read. *)
  let read_pair h (s, j) =
    match active h s with HP hp -> S.read hp j | HR hr -> R.read hr j

  (* One sub-scan of shard [s]: an atomic fragment of that shard.
     Hardened detections that surface during it are charged to [s] — a
     heuristic (other processes run concurrently), but fault-saturated
     shards dominate the deltas they sit on. *)
  let sub_scan h s js =
    let ev0 = hardened_evidence () in
    let rows =
      match active h s with
      | HP hp ->
        let r = S.scan hp js in
        h.collects <- h.collects + S.last_scan_collects hp;
        r
      | HR hr ->
        let r = R.scan hr js in
        h.collects <- h.collects + R.last_scan_collects hr;
        r
    in
    if hardened_evidence () > ev0 then strike h.t s;
    rows

  (* One collect (and one round): each component's pair, one read each.
     Detections are charged to the shard whose read surfaced them, at most
     one strike per shard per collect. *)
  let collect h locs =
    h.rounds <- h.rounds + 1;
    h.collects <- h.collects + 1;
    let struck = ref [] in
    Array.map
      (fun ((s, _) as loc) ->
        let ev0 = hardened_evidence () in
        let pair = read_pair h loc in
        if hardened_evidence () > ev0 && not (List.mem s !struck) then begin
          struck := s :: !struck;
          strike h.t s
        end;
        pair)
      locs

  let same_tag ((e, u) : tag) ((e', u') : tag) = e = e' && u = u'

  (* Positions, ascending, whose tags differ between two collects. *)
  let disagreeing prev cur =
    List.filter
      (fun p -> not (same_tag (fst prev.(p)) (fst cur.(p))))
      (List.init (Array.length cur) Fun.id)

  (* Positions, ascending, of the requested components whose shard
     satisfies [keep]. *)
  let positions locs keep =
    List.init (Array.length locs) Fun.id
    |> List.filter (fun k -> keep (fst locs.(k)))
    |> Array.of_list

  (* The requested values: each part pairs positions with the pairs read
     for them, and the first part is non-empty. *)
  let emit len parts =
    let out = Array.make len (snd (snd (List.hd parts)).(0)) in
    List.iter
      (fun (pos, row) -> Array.iteri (fun p k -> out.(k) <- snd row.(p)) pos)
      parts;
    out

  let scan_outcome h idxs =
    let t = h.t in
    let len = Array.length idxs in
    h.collects <- 0;
    h.rounds <- 0;
    h.degraded <- false;
    if len = 0 then Atomic [||]
    else begin
      let locs =
        Array.map
          (fun i ->
            if i < 0 || i >= t.m then invalid_arg "Resilient.scan: index";
            Placement.locate t.place i)
          idxs
      in
      (* touched shards, ascending; each breaker ticks once per scan *)
      let touched =
        List.sort_uniq Int.compare (Array.to_list (Array.map fst locs))
      in
      let open_ = List.filter (breaker_skips t) touched in
      let validated = List.filter (fun s -> not (List.mem s open_)) touched in
      let cross = List.compare_length_with validated 2 >= 0 in
      (* One sub-scan per open shard, unvalidated.  A lone validated shard
         is served by one sub-scan too: a sub-scan is linearizable on its
         own, so it needs no double collect (and still counts as a
         probe). *)
      let fragments =
        List.map
          (fun s ->
            let pos = positions locs (Int.equal s) in
            (pos, sub_scan h s (Array.map (fun k -> snd locs.(k)) pos)))
          (if cross then open_ else touched)
      in
      (* Atomic unless some shard is suspect *)
      let finish ?(suspects = open_) ?(failed = []) values =
        Metrics.(add Serving.scan_rounds h.rounds);
        if h.rounds > 2 then Metrics.(add Serving.scan_retries (h.rounds - 2));
        if suspects = [] then Atomic values
        else begin
          h.degraded <- true;
          Metrics.(incr Serving.degraded_scans);
          Degraded { values; suspects; failed; rounds = h.rounds }
        end
      in
      if not cross then begin
        h.rounds <- 1;
        List.iter (breaker_ok t) validated;
        finish (emit len fragments)
      end
      else begin
        (* Sharded's double collect over the validated components, under a
           budget: C.max_rounds collects in total, then Degraded *)
        let vpos = positions locs (fun s -> not (List.mem s open_)) in
        let vlocs = Array.map (fun k -> locs.(k)) vpos in
        let[@psnap.bounded
             "at most C.max_rounds collects: every collect increments \
              h.rounds and the budget check precedes the recursion"] rec
            settle prev =
          let cur = collect h vlocs in
          let parts = (vpos, cur) :: fragments in
          match disagreeing prev cur with
          | [] ->
            List.iter (breaker_ok t) validated;
            finish (emit len parts)
          | dis when h.rounds >= C.max_rounds ->
            let suspects =
              List.sort_uniq Int.compare (List.map (fun p -> fst vlocs.(p)) dis)
            in
            List.iter (strike t) suspects;
            finish ~suspects:(open_ @ suspects)
              ~failed:
                (List.map (fun p -> (idxs.(vpos.(p)), fst (fst cur.(p)))) dis)
              (emit len parts)
          | _ ->
            backoff h (h.rounds - 1);
            settle cur
        in
        settle (collect h vlocs)
      end
    end

  let scan h idxs =
    match scan_outcome h idxs with
    | Atomic vs -> vs
    | Degraded { values; _ } -> values

  let read h i =
    let t = h.t in
    if i < 0 || i >= t.m then invalid_arg "Resilient.read: index";
    snd (read_pair h (Placement.locate t.place i))

  let last_scan_collects h = h.collects

  let last_scan_rounds h = h.rounds

  let last_scan_degraded h = h.degraded

  (* ---- introspection / administration ---- *)

  let nshards t = Array.length t.ptrs

  let breaker_state t s = t.breakers.(s).bstate

  let force_open t s =
    let b = t.breakers.(s) in
    if b.bstate <> Open then Metrics.(incr Serving.breaker_opens);
    b.bstate <- Open;
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
