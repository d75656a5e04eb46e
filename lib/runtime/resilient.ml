(* Resilient serving: a supervision layer over sharded partial snapshots
   that makes every operation bounded and honest about degradation.

   See resilient.mli for the API contract and docs/MODEL.md §11 for the
   degradation semantics.  The construction mirrors Sharded's geometry
   (per-shard snapshot instances, per-shard epochs) but validates a
   cross-shard scan over rounds of per-shard sub-scans, where Sharded
   double-collects single-component reads, and adds three mechanisms on
   top:

   - scans carry a round budget with exponential backoff between failed
     validation rounds; on exhaustion they return [Degraded] instead of
     retrying forever;
   - each shard has a circuit breaker (closed / open / half-open) fed by
     hardened-register fault counters, validation-failure attribution and
     stuck-epoch detection; open shards are read once, unvalidated, and
     flagged;
   - a wounded shard is healed: sealed against updates, drained to
     quiescence, copied by one final sub-scan, rebuilt on the replacement
     implementation [R] (hardened memory), and swapped in by CAS.

   Values are stored as [((epoch, nonce), v)].  Epochs come from a
   per-shard, per-generation fetch&increment cell and give scans their
   ABA-free validation (as in Sharded); the nonce is drawn from a plain
   OCaml counter and makes tags unique even when the epoch cell is stuck
   (a stuck fetch&add returns the same epoch twice — the nonce keeps the
   two updates distinguishable, so validation never silently accepts a
   changed component, and the non-monotone draw is itself the detector
   that triggers healing). *)

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

  (* Nonce source: a plain (step-free) OCaml counter, exactly like the
     hardened registers' tag nonces — supervisor bookkeeping, not shared
     algorithm state.  Under the cooperative simulator increments are
     atomic between scheduling points; under real domains they are
     unsynchronized, and a duplicated nonce merely weakens one validation
     comparison to epoch-only (Sharded's guarantee). *)
  let nonce_counter = ref 0

  let next_nonce () =
    incr nonce_counter;
    !nonce_counter

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
    nshards : int;
    m : int;
    q : int;
    rem : int;
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

  (* ---- geometry (same placement functions as Sharded) ---- *)

  let locate t i =
    match C.partition with
    | `Round_robin -> (i mod t.nshards, i / t.nshards)
    | `Range ->
      let cut = t.rem * (t.q + 1) in
      if i < cut then (i / (t.q + 1), i mod (t.q + 1))
      else
        let j = i - cut in
        (t.rem + (j / t.q), j mod t.q)

  let shard_size t s =
    match C.partition with
    | `Round_robin -> (t.m - s + t.nshards - 1) / t.nshards
    | `Range -> if s < t.rem then t.q + 1 else t.q

  let create ~n init =
    let m = Array.length init in
    if m = 0 then invalid_arg "Resilient.create: empty";
    if C.shards < 1 then invalid_arg "Resilient.create: shards < 1";
    if C.max_rounds < 2 then invalid_arg "Resilient.create: max_rounds < 2";
    if C.heal_quiesce < 1 then invalid_arg "Resilient.create: heal_quiesce < 1";
    let nshards = min C.shards m in
    let q = m / nshards and rem = m mod nshards in
    let size s =
      match C.partition with
      | `Round_robin -> (m - s + nshards - 1) / nshards
      | `Range -> if s < rem then q + 1 else q
    in
    let global s j =
      match C.partition with
      | `Round_robin -> (j * nshards) + s
      | `Range ->
        if s < rem then (s * (q + 1)) + j
        else (rem * (q + 1)) + ((s - rem) * q) + j
    in
    let ptrs =
      Array.init nshards (fun s ->
          let sub =
            S.create ~n
              (Array.init (size s) (fun j -> ((0, 0), init.(global s j))))
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
      nshards;
      m;
      q;
      rem;
    }

  let handle t ~pid =
    {
      t;
      pid;
      cache = Array.make t.nshards None;
      last_epoch = Array.make t.nshards (-1);
      last_gen = Array.make t.nshards 0;
      stuck_reported = Array.make t.nshards false;
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
    | Closed -> false
    | Half_open -> false
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
        let idxs = Array.init (shard_size t s) Fun.id in
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
    | Active _ as cur -> (
      match cur with
      | Active st ->
        if M.cas t.ptrs.(s) ~expected:cur ~desired:(Sealed st) then
          Metrics.(incr Serving.heals_started)
      | Sealed _ -> ()));
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
    let s, j = locate t i in
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

  let scan_outcome h idxs =
    let t = h.t in
    let len = Array.length idxs in
    h.collects <- 0;
    h.rounds <- 0;
    h.degraded <- false;
    if len = 0 then Atomic [||]
    else begin
      Array.iter
        (fun i ->
          if i < 0 || i >= t.m then invalid_arg "Resilient.scan: index")
        idxs;
      (* group requested components by shard (same layout as Sharded) *)
      let locs = Array.make t.nshards [] in
      for k = len - 1 downto 0 do
        let s, j = locate t idxs.(k) in
        locs.(s) <- (j, k) :: locs.(s)
      done;
      let touched = ref [] in
      for s = t.nshards - 1 downto 0 do
        if locs.(s) <> [] then touched := s :: !touched
      done;
      let touched = Array.of_list !touched in
      let nt = Array.length touched in
      let sub_idx =
        Array.map (fun s -> Array.of_list (List.map fst locs.(s))) touched
      in
      let sub_pos =
        Array.map (fun s -> Array.of_list (List.map snd locs.(s))) touched
      in
      (* open circuits: their sub-scan is taken once, unvalidated; the
         result is a per-shard-atomic fragment and the scan is Degraded *)
      let skip = Array.map (fun s -> breaker_skips t s) touched in
      let n_validated = ref 0 in
      Array.iter (fun sk -> if not sk then incr n_validated) skip;
      let open_suspects =
        Array.to_list touched
        |> List.filteri (fun k _ -> skip.(k))
      in
      let round () =
        h.rounds <- h.rounds + 1;
        Array.init nt (fun k ->
            let s = touched.(k) in
            let ev0 = hardened_evidence () in
            let st = active_state t ~pid:h.pid s in
            let rows =
              match handle_for h s st with
              | HP hp ->
                let r = S.scan hp sub_idx.(k) in
                h.collects <- h.collects + S.last_scan_collects hp;
                r
              | HR hr ->
                let r = R.scan hr sub_idx.(k) in
                h.collects <- h.collects + R.last_scan_collects hr;
                r
            in
            (* hardened detections that surfaced during this sub-scan are
               attributed to this shard — a heuristic (other processes run
               concurrently), but fault-saturated shards dominate the
               deltas they sit on *)
            if hardened_evidence () > ev0 then strike t s;
            rows)
      in
      let emit rows =
        let _, v0 = rows.(0).(0) in
        let out = Array.make len v0 in
        for k = 0 to nt - 1 do
          let pos = sub_pos.(k) and row = rows.(k) in
          for p = 0 to Array.length row - 1 do
            out.(pos.(p)) <- snd row.(p)
          done
        done;
        out
      in
      (* shards (by position k) whose tags changed between two rounds —
         only validated shards participate *)
      let disagreeing prev cur =
        let dis = ref [] in
        for k = nt - 1 downto 0 do
          if not skip.(k) then begin
            let pk = prev.(k) and ck = cur.(k) in
            let differs = ref false in
            for p = 0 to Array.length pk - 1 do
              if fst pk.(p) <> fst ck.(p) then differs := true
            done;
            if !differs then dis := k :: !dis
          end
        done;
        !dis
      in
      (* components that failed validation, with the epoch last seen *)
      let failed_of prev cur dis =
        List.concat_map
          (fun k ->
            let pk = prev.(k) and ck = cur.(k) and pos = sub_pos.(k) in
            let acc = ref [] in
            for p = Array.length pk - 1 downto 0 do
              if fst pk.(p) <> fst ck.(p) then
                acc := (idxs.(pos.(p)), fst (fst ck.(p))) :: !acc
            done;
            !acc)
          dis
      in
      let finish outcome =
        Metrics.(add Serving.scan_rounds h.rounds);
        if h.rounds > 2 then Metrics.(add Serving.scan_retries (h.rounds - 2));
        (match outcome with
        | Degraded _ ->
          h.degraded <- true;
          Metrics.(incr Serving.degraded_scans)
        | Atomic _ -> ());
        outcome
      in
      if !n_validated >= 2 then begin
        (* epoch-validated double collect over whole rounds, with a round
           budget: C.max_rounds rounds in total, then Degraded *)
        let[@psnap.bounded
             "at most C.max_rounds rounds: every iteration increments \
              h.rounds and the budget check precedes the recursion"] rec
            settle prev =
          let cur = round () in
          match disagreeing prev cur with
          | [] ->
            Array.iteri (fun k s -> if not skip.(k) then breaker_ok t s) touched;
            if open_suspects = [] then finish (Atomic (emit cur))
            else
              finish
                (Degraded
                   {
                     values = emit cur;
                     suspects = open_suspects;
                     failed = [];
                     rounds = h.rounds;
                   })
          | dis when h.rounds >= C.max_rounds ->
            let suspects = List.map (fun k -> touched.(k)) dis in
            List.iter (fun s -> strike t s) suspects;
            finish
              (Degraded
                 {
                   values = emit cur;
                   suspects = open_suspects @ suspects;
                   failed = failed_of prev cur dis;
                   rounds = h.rounds;
                 })
          | _ ->
            backoff h (h.rounds - 1);
            settle cur
        in
        settle (round ())
      end
      else begin
        (* 0 or 1 validated shards: a single round suffices — each
           sub-scan is linearizable on its own, so one validated shard
           needs no cross-round agreement (and its trivially successful
           validation still counts as a probe) while open shards never
           get one *)
        let cur = round () in
        Array.iteri (fun k s -> if not skip.(k) then breaker_ok t s) touched;
        if open_suspects = [] then finish (Atomic (emit cur))
        else
          finish
            (Degraded
               {
                 values = emit cur;
                 suspects = open_suspects;
                 failed = [];
                 rounds = h.rounds;
               })
      end
    end

  let scan h idxs =
    match scan_outcome h idxs with
    | Atomic vs -> vs
    | Degraded { values; _ } -> values

  (* One component lives in one shard: the active instance's own
     linearizable read, with any in-progress heal helped first. *)
  let read h i =
    let t = h.t in
    if i < 0 || i >= t.m then invalid_arg "Resilient.read: index";
    let s, j = locate t i in
    match handle_for h s (active_state t ~pid:h.pid s) with
    | HP hp -> snd (S.read hp j)
    | HR hr -> snd (R.read hr j)

  let last_scan_collects h = h.collects

  let last_scan_rounds h = h.rounds

  let last_scan_degraded h = h.degraded

  (* ---- introspection / administration ---- *)

  let nshards t = t.nshards

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
