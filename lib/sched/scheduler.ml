(** Scheduling policies for the simulator.

    The paper's model lets an adversary interleave the atomic steps of the
    processes arbitrarily (Section 2).  A scheduler is asked, at every step,
    which of the runnable processes takes the next shared-memory step; it may
    instead crash a process (crash–restart fault model: the process loses its
    local state but shared memory survives), restart a previously crashed
    process on its recovery function, or stop the run early (used by the
    exhaustive explorer).

    Policies receive a {!view} of the machine: the runnable pids, the crashed
    pids eligible for restart, the clock, and the kind of shared access each
    runnable process is suspended at — enough for targeted fault injection
    ("crash this process while its CAS is pending") without giving the
    adversary anything the model's adversary does not have. *)

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
          needs to target a structure ("stall every access to shard 2")
          without knowing cell oids; [None] for pids that are not
          runnable *)
  steps_of : int -> int;
      (** shared-memory steps executed so far by a pid (across all its
          incarnations) *)
}

type decision =
  | Run of int  (** pid takes its pending step *)
  | Crash of int  (** pid halts losing its local state; its pending step is
                      never executed *)
  | Restart of int  (** a crashed pid respawns on its recovery function *)
  | Mem_fault of { kind : Event.fault_kind; oid : int }
      (** inject a memory fault into cell [oid] (docs/MODEL.md §9); charged
          to the fault budget like {!Crash}/{!Restart} *)
  | Power_loss
      (** whole-machine blackout (docs/MODEL.md §13): every
          durable-storage device drops the writes buffered since its last
          [sync] barrier {e and} every runnable process halts, as one
          decision — so no shrunk schedule can leave a survivor computing
          against pre-loss volatile state.  Reboot is ordinary [Restart]
          decisions; charged to the fault budget like {!Crash} *)
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
  | Stop  (** abandon the run (explorer ran out of forced choices) *)

type t = { name : string; pick : view -> decision }

let name t = t.name

let pick t view = t.pick view

let is_runnable v pid = Array.exists (fun p -> p = pid) v.runnable

let is_restartable v pid = Array.exists (fun p -> p = pid) v.crashed

(* ---- decision serialization (schedule files, shrink reports) ---- *)

let decision_to_string = function
  | Run pid -> Printf.sprintf "run %d" pid
  | Crash pid -> Printf.sprintf "crash %d" pid
  | Restart pid -> Printf.sprintf "restart %d" pid
  | Mem_fault { kind; oid } ->
    Printf.sprintf "%s %d" (Event.fault_kind_to_string kind) oid
  | Power_loss -> "powerloss"
  | Net_fault { kind; src; dst } ->
    Printf.sprintf "%s %d %d" (Event.net_fault_kind_to_string kind) src dst
  | Reconfig -> "reconfig"
  | Stop -> "stop"

let decision_of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "run"; p ] -> Run (int_of_string p)
  | [ "crash"; p ] -> Crash (int_of_string p)
  | [ "restart"; p ] -> Restart (int_of_string p)
  | [ "powerloss" ] -> Power_loss
  | [ "reconfig" ] -> Reconfig
  | [ "stop" ] -> Stop
  | [ verb; oid ] when Event.fault_kind_of_string verb <> None ->
    Mem_fault
      {
        kind = Option.get (Event.fault_kind_of_string verb);
        oid = int_of_string oid;
      }
  | [ verb; src; dst ] when Event.net_fault_kind_of_string verb <> None ->
    Net_fault
      {
        kind = Option.get (Event.net_fault_kind_of_string verb);
        src = int_of_string src;
        dst = int_of_string dst;
      }
  | _ -> invalid_arg (Printf.sprintf "Scheduler.decision_of_string: %S" s)

let pp_decision ppf d = Fmt.string ppf (decision_to_string d)

(* ---- basic policies ---- *)

(* Fault-oblivious policies only ever [Run]; when the view has no runnable
   pid (everything left alive has crashed, restartable), they end the run.
   [Sim.run] reports [Stop] with no runnable pids as [Completed]: the
   crashed processes simply never came back, which the crash–restart model
   allows. *)
let or_stop pick v = if Array.length v.runnable = 0 then Stop else pick v

let round_robin () =
  let last = ref (-1) in
  let pick v =
    let runnable = v.runnable in
    (* smallest runnable pid strictly greater than [!last], cyclically *)
    let n = Array.length runnable in
    let best = ref runnable.(0) in
    let found = ref false in
    for i = 0 to n - 1 do
      let p = runnable.(i) in
      if (not !found) && p > !last then (
        best := p;
        found := true)
    done;
    last := !best;
    Run !best
  in
  { name = "round-robin"; pick = or_stop pick }

let random ~seed () =
  let st = Random.State.make [| seed |] in
  let pick v = Run v.runnable.(Random.State.int st (Array.length v.runnable)) in
  { name = Printf.sprintf "random(%d)" seed; pick = or_stop pick }

(** Mostly runs processes other than [victims]; a victim runs only when it is
    alone or with probability [boost].  Models a slow scanner among fast
    updaters (the starvation scenario motivating the helping mechanism). *)
let starve ~victims ~seed ?(boost = 0.02) () =
  let st = Random.State.make [| seed |] in
  let is_victim p = List.mem p victims in
  let pick v =
    let runnable = v.runnable in
    let others = Array.to_list runnable |> List.filter (fun p -> not (is_victim p)) in
    match others with
    | [] -> Run runnable.(Random.State.int st (Array.length runnable))
    | _ ->
      if Random.State.float st 1.0 < boost then
        Run runnable.(Random.State.int st (Array.length runnable))
      else Run (List.nth others (Random.State.int st (List.length others)))
  in
  { name = "starve"; pick = or_stop pick }

(** Replays an explicit list of pids; issues [Stop] when the list is
    exhausted and the program has not finished.  Used by {!Explore}. *)
let replay choices =
  let rest = ref choices in
  let pick v =
    match !rest with
    | [] -> Stop
    | c :: tl ->
      rest := tl;
      if is_runnable v c then Run c
      else
        (* A forced choice must be runnable: the explorer only extends
           prefixes with pids it observed runnable. *)
        invalid_arg "Scheduler.replay: choice not runnable"
  in
  { name = "replay"; pick }

(** [replay_then choices fallback] replays a prefix then delegates. *)
let replay_then choices fallback =
  let rest = ref choices in
  let pick v =
    match !rest with
    | c :: tl when is_runnable v c ->
      rest := tl;
      Run c
    | c :: _ ->
      invalid_arg
        (Printf.sprintf "Scheduler.replay_then: choice p%d not runnable" c)
    | [] -> fallback.pick v
  in
  { name = "replay+" ^ fallback.name; pick }

(** Replays an explicit decision list (the shape recorded by
    [Trace.schedule]); issues [Stop] — or delegates to [fallback] — once
    exhausted.  In [lenient] mode a decision that is not currently applicable
    (pid not runnable for [Run]/[Crash], not crashed for [Restart]) is
    silently skipped instead of raising; the delta-debugging shrinker relies
    on this to evaluate subsequences of a recorded schedule. *)
let replay_decisions ?(lenient = false) ?fallback decisions =
  let rest = ref decisions in
  let rec pick v =
    match !rest with
    | [] -> (match fallback with Some f -> f.pick v | None -> Stop)
    | d :: tl ->
      let applicable =
        match d with
        | Run p | Crash p -> is_runnable v p
        | Restart p -> is_restartable v p
        (* A fault targeting a cell the current execution never allocates is
           absorbed by the simulator, so the decision is always playable. *)
        | Mem_fault _ -> true
        (* Power loss hits whatever storage devices exist; always playable. *)
        | Power_loss -> true
        (* A net fault against a link with no matching in-flight message is
           absorbed by the transport, so the decision is always playable. *)
        | Net_fault _ -> true
        (* A reconfiguration request with no manager listening (or one
           already mid-handoff) is absorbed; always playable. *)
        | Reconfig -> true
        | Stop -> true
      in
      if applicable then (
        rest := tl;
        d)
      else if lenient then (
        rest := tl;
        pick v)
      else
        invalid_arg
          (Printf.sprintf "Scheduler.replay_decisions: %s not applicable"
             (decision_to_string d))
  in
  { name = "replay-decisions"; pick }

(** Probabilistic concurrency testing (Burckhardt et al., ASPLOS 2010):
    assign each process a random priority, always run the highest-priority
    runnable process, and demote the running process to a fresh lowest
    priority at [depth - 1] random change points.  For a program with [n]
    processes and [k] steps, each run detects any bug of depth [d] with
    probability at least [1/(n·k^(d-1))] — far better at surfacing rare
    orderings than uniform random walks, while staying reproducible via the
    seed. *)
let pct ~seed ?(depth = 3) ?(expected_steps = 2000) () =
  let st = Random.State.make [| seed |] in
  let priorities : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let next_low = ref 0 in
  let change_points =
    List.init (max 0 (depth - 1)) (fun _ ->
        1 + Random.State.int st (max 1 expected_steps))
    |> List.sort compare
  in
  let remaining = ref change_points in
  let priority p =
    match Hashtbl.find_opt priorities p with
    | Some x -> x
    | None ->
      (* initial priorities: random distinct positives *)
      let x = 1000 + Random.State.int st 1_000_000 in
      Hashtbl.replace priorities p x;
      x
  in
  let pick v =
    let runnable = v.runnable in
    (match !remaining with
    | cp :: rest when v.clock >= cp ->
      remaining := rest;
      (* demote the currently highest-priority runnable process *)
      let top =
        Array.fold_left
          (fun best p ->
            match best with
            | None -> Some p
            | Some b -> if priority p > priority b then Some p else best)
          None runnable
      in
      Option.iter
        (fun p ->
          decr next_low;
          Hashtbl.replace priorities p !next_low)
        top
    | _ -> ());
    let best = ref runnable.(0) in
    Array.iter (fun p -> if priority p > priority !best then best := p) runnable;
    Run !best
  in
  { name = Printf.sprintf "pct(d=%d)" depth; pick = or_stop pick }

(** Deterministic burst-rotation adversary: repeatedly gives the next
    non-victim process [burst] consecutive steps (enough to complete a whole
    operation), then each victim [victim_steps] steps (about one collect).
    Rotating the bursts over {e different} processes is the schedule that
    maximizes the number of collects under Figure 1's per-process helping
    rule: each of the victim's collects observes a change by a fresh
    process, postponing the "two observed changes by the same process"
    borrow for as long as possible. *)
let rotation ~victims ~burst ~victim_steps () =
  let phases = ref [] in
  let next = ref 0 in
  let pick v =
    let runnable = v.runnable in
    let mem p = Array.exists (fun q -> q = p) runnable in
    let rec take () =
      match !phases with
      | (p, k) :: rest when k > 0 && mem p ->
        phases := (p, k - 1) :: rest;
        Run p
      | _ :: rest ->
        phases := rest;
        take ()
      | [] -> (
        let non_victims =
          Array.to_list runnable |> List.filter (fun p -> not (List.mem p victims))
        in
        match non_victims with
        | [] -> Run runnable.(0)
        | _ ->
          let u = List.nth non_victims (!next mod List.length non_victims) in
          incr next;
          phases :=
            (u, burst) :: List.map (fun v -> (v, victim_steps)) victims;
          take ())
    in
    take ()
  in
  { name = "rotation"; pick = or_stop pick }

(** Runs each process a random burst of consecutive steps (geometric with
    mean [mean_burst]).  Bursty schedules are what trigger the
    "three values from the same process" helping path. *)
let bursty ~seed ?(mean_burst = 8) () =
  let st = Random.State.make [| seed |] in
  let cur = ref (-1) in
  let left = ref 0 in
  let pick v =
    let runnable = v.runnable in
    let cur_runnable = Array.exists (fun p -> p = !cur) runnable in
    if !left <= 0 || not cur_runnable then (
      cur := runnable.(Random.State.int st (Array.length runnable));
      left := 1 + Random.State.int st (2 * mean_burst));
    decr left;
    Run !cur
  in
  { name = "bursty"; pick = or_stop pick }

(* ---- nemesis combinators: fault injection over an inner policy ---- *)

(** [with_crash ~pid ~at_clock inner] crashes [pid] the first time the clock
    reaches [at_clock] while [pid] is runnable.  The pid stays down for the
    rest of the run (halting failure). *)
let with_crash ~pid ~at_clock inner =
  let done_ = ref false in
  let pick v =
    if (not !done_) && v.clock >= at_clock && is_runnable v pid then (
      done_ := true;
      Crash pid)
    else inner.pick v
  in
  { name = inner.name ^ "+crash"; pick }

(** One deterministic crash–restart cycle: crash [pid] once the clock
    reaches [crash_at], then restart it [restart_after] clock ticks after
    the crash (a {e delayed} restart — the pid stays down while others make
    progress, as a rebooting server would). *)
let with_crash_restart ~pid ~crash_at ~restart_after inner =
  let state = ref `Armed in
  let pick v =
    match !state with
    | `Armed when v.clock >= crash_at && is_runnable v pid ->
      state := `Down v.clock;
      Crash pid
    | `Down c when v.clock >= c + restart_after && is_restartable v pid ->
      state := `Done;
      Restart pid
    | `Down _
      when Array.length v.runnable = 0 && is_restartable v pid ->
      (* Everything is down, so the clock can never reach the scheduled
         restart time: reboot now rather than livelock. *)
      state := `Done;
      Restart pid
    | _ -> inner.pick v
  in
  { name = inner.name ^ "+crash-restart"; pick }

(** Seeded crash storm: at every decision point, with probability [rate],
    crash a uniformly chosen runnable process (at most [max_crashes] kills
    per run), restarting each victim [restart_after] clock ticks later.
    Restarts are issued deterministically in [view.crashed] order.  The
    last runnable process is never crashed, so the run keeps making
    progress. *)
let crash_storm ~seed ?(rate = 0.02) ?(max_crashes = 4) ?(restart_after = 25)
    inner =
  let st = Random.State.make [| seed; 0x5702 |] in
  let kills = ref 0 in
  (* pid -> clock of its crash; a crashed pid absent from the table (crashed
     by someone else, e.g. a composed nemesis) is due immediately. *)
  let down : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let pick v =
    (* When nothing is runnable the clock is frozen, so every pending
       restart is due now. *)
    let stalled = Array.length v.runnable = 0 in
    let due =
      Array.to_list v.crashed
      |> List.filter (fun p ->
             stalled
             ||
             match Hashtbl.find_opt down p with
             | Some c -> v.clock >= c + restart_after
             | None -> true)
    in
    match due with
    | p :: _ ->
      Hashtbl.remove down p;
      Restart p
    | [] ->
      if
        !kills < max_crashes
        && Array.length v.runnable > 1
        && Random.State.float st 1.0 < rate
      then begin
        let p = v.runnable.(Random.State.int st (Array.length v.runnable)) in
        incr kills;
        Hashtbl.replace down p v.clock;
        Crash p
      end
      else inner.pick v
  in
  { name = Printf.sprintf "storm(%d)+%s" seed inner.name; pick }

(** Targeted fault: crash [pid] the [nth] time it is suspended at a shared
    access of kind [op] — e.g. [~op:Event.Cas] kills an updater {e between
    its read and its CAS}, the classic lost-update window.  With
    [?restart_after] the victim is respawned that many clock ticks later;
    without it the crash is permanent. *)
let crash_on_op ~pid ~op ?(nth = 1) ?restart_after inner =
  let seen = ref 0 in
  let last_counted = ref (-1) in
  let state = ref `Armed in
  let pick v =
    match !state with
    | `Done -> inner.pick v
    | `Down c -> (
      match restart_after with
      | Some d
        when is_restartable v pid
             && (v.clock >= c + d || Array.length v.runnable = 0) ->
        state := `Done;
        Restart pid
      | _ -> inner.pick v)
    | `Armed ->
      if is_runnable v pid && v.op_of pid = Some op then begin
        (* Count each distinct suspension once, not each consultation: the
           victim's executed-step count changes exactly when it moves to a
           new pending access. *)
        let steps = v.steps_of pid in
        if steps <> !last_counted then begin
          last_counted := steps;
          incr seen
        end;
        if !seen >= nth then begin
          state := `Down v.clock;
          Crash pid
        end
        else inner.pick v
      end
      else inner.pick v
  in
  { name = inner.name ^ "+crash-on-op"; pick }

(** The seeded chaos nemesis: composes the storm (random kills, delayed
    randomized restarts) with targeted kills — when a victim is chosen and
    some runnable process has a CAS pending, that process is preferred with
    probability 1/2, maximizing pressure on the read-to-CAS windows.  All
    randomness derives from [seed]; the whole schedule replays exactly.
    Defaults to a seeded {!random} walk between faults. *)
let chaos ~seed ?(rate = 0.04) ?(max_crashes = 6) ?(max_restart_delay = 30)
    ?inner () =
  let inner =
    match inner with Some s -> s | None -> random ~seed:(seed lxor 0x9e3779) ()
  in
  let st = Random.State.make [| seed; 0xC4A05 |] in
  let kills = ref 0 in
  let due : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let pick v =
    let stalled = Array.length v.runnable = 0 in
    let ready =
      Array.to_list v.crashed
      |> List.filter (fun p ->
             stalled
             ||
             match Hashtbl.find_opt due p with
             | Some c -> v.clock >= c
             | None -> true)
    in
    match ready with
    | p :: _ ->
      Hashtbl.remove due p;
      Restart p
    | [] ->
      if
        !kills < max_crashes
        && Array.length v.runnable > 1
        && Random.State.float st 1.0 < rate
      then begin
        let cas_pending =
          Array.to_list v.runnable
          |> List.filter (fun p -> v.op_of p = Some Event.Cas)
        in
        let victim =
          match cas_pending with
          | p :: _ when Random.State.bool st -> p
          | _ -> v.runnable.(Random.State.int st (Array.length v.runnable))
        in
        incr kills;
        Hashtbl.replace due victim
          (v.clock + 1 + Random.State.int st (max 1 max_restart_delay));
        Crash victim
      end
      else inner.pick v
  in
  { name = Printf.sprintf "chaos(%d)" seed; pick }

(* ---- memory-fault nemeses (docs/MODEL.md §9) ---- *)

(** Seeded memory-fault storm: at every decision point, with probability
    [rate], inject a fault of a uniformly chosen kind from [kinds] into the
    cell some runnable process is suspended at (at most [max_faults] per
    run).  Targeting pending-access cells rather than random oids puts
    every fault on a cell the algorithms are actively contending on.  All
    randomness derives from [seed]; the schedule replays exactly. *)
let mem_storm ~seed ?(kinds = Event.all_fault_kinds) ?(rate = 0.02)
    ?(max_faults = 8) inner =
  if kinds = [] then invalid_arg "Scheduler.mem_storm: empty kind list";
  let st = Random.State.make [| seed; 0xFA17 |] in
  let injected = ref 0 in
  let pick v =
    if
      !injected < max_faults
      && Array.length v.runnable > 0
      && Random.State.float st 1.0 < rate
    then begin
      let p = v.runnable.(Random.State.int st (Array.length v.runnable)) in
      match v.oid_of p with
      | Some oid ->
        let kind = List.nth kinds (Random.State.int st (List.length kinds)) in
        incr injected;
        Mem_fault { kind; oid }
      | None -> inner.pick v
    end
    else inner.pick v
  in
  { name = Printf.sprintf "mem-storm(%d)+%s" seed inner.name; pick }

(** Targeted memory fault by cell {e name}: once the clock reaches
    [at_clock], inject a fault of [kind] into the first cell some runnable
    process is suspended at whose name starts with [name_prefix].  One
    shot.  This is how a campaign deterministically wounds a named
    structure — e.g. [~kind:Event.Stuck_cell ~name_prefix:"rshard1.epoch"]
    sticks shard 1's epoch source, the trigger for the resilient layer's
    self-healing path — without knowing cell oids (which depend on
    allocation order). *)
let mem_fault_on_cell ~kind ~name_prefix ?(at_clock = 0) inner =
  let done_ = ref false in
  let pick v =
    if !done_ || v.clock < at_clock then inner.pick v
    else begin
      let target =
        Array.fold_left
          (fun acc p ->
            match acc with
            | Some _ -> acc
            | None -> (
              match (v.name_of p, v.oid_of p) with
              | Some n, Some oid
                when String.starts_with ~prefix:name_prefix n ->
                Some oid
              | _ -> None))
          None v.runnable
      in
      match target with
      | Some oid ->
        done_ := true;
        Mem_fault { kind; oid }
      | None -> inner.pick v
    end
  in
  { name = inner.name ^ "+fault-on-cell"; pick }

(* ---- latency-fault nemeses ---- *)

(** [stall_cells ~matches ~from_clock ~until_clock inner] refuses, inside
    the clock window, to schedule any process whose pending access targets
    a cell whose name satisfies [matches]: the access stays pending, the
    process is {e stalled} without being crashed (its local state
    survives).  When every runnable process is stalled the window is
    punched through — one stalled process runs — so the run never
    livelocks; outside the window, and for non-matching processes, [inner]
    decides.  The deterministic detour choice derives from the clock. *)
let stall_cells ~matches ~from_clock ~until_clock inner =
  let stalled v p =
    match v.name_of p with Some n -> matches n | None -> false
  in
  let pick v =
    if v.clock < from_clock || v.clock >= until_clock then inner.pick v
    else
      let free =
        Array.to_list v.runnable |> List.filter (fun p -> not (stalled v p))
      in
      match free with
      | [] -> inner.pick v
      | _ -> (
        match inner.pick v with
        | Run p when stalled v p ->
          Run (List.nth free (v.clock mod List.length free))
        | d -> d)
  in
  { name = inner.name ^ "+stall-cells"; pick }

(** [stall_shard ~shard] — {!stall_cells} matching the spine cells of
    shard [shard] in the resilient serving layer: ["rshard<k>."]
    ([Psnap_runtime.Resilient]'s pointer / epoch / inflight cells).  Every
    update routed to the shard and every sub-scan of it must cross one of
    these cells, so the whole shard stalls; scans of other shards keep
    running — exactly the partial-outage a circuit breaker must contain. *)
let stall_shard ~shard ~from_clock ~until_clock inner =
  let prefix = Printf.sprintf "rshard%d." shard in
  stall_cells ~matches:(String.starts_with ~prefix) ~from_clock ~until_clock
    inner

(** [slow_domain ~pid ~period inner] rate-limits [pid]: whenever [inner]
    elects it outside its every-[period]-th decision slot, a different
    runnable process is run instead (chosen deterministically from the
    decision counter).  Models a uniformly slow client — a thermally
    throttled core, a VM on an oversubscribed host — as opposed to
    {!starve}'s probabilistic victim.  [pid] still runs when it is the
    only runnable process. *)
let slow_domain ~pid ?(period = 8) inner =
  if period < 1 then invalid_arg "Scheduler.slow_domain: period < 1";
  let tick = ref 0 in
  let pick v =
    incr tick;
    match inner.pick v with
    | Run p when p = pid && !tick mod period <> 0 -> (
      let others =
        Array.to_list v.runnable |> List.filter (fun q -> q <> pid)
      in
      match others with
      | [] -> Run p
      | _ -> Run (List.nth others (!tick mod List.length others)))
    | d -> d
  in
  { name = inner.name ^ "+slow-domain"; pick }

(** Targeted memory fault: corrupt the cell [pid] is about to access the
    [nth] time it is suspended at an access of kind [op] — with
    [~op:Event.Cas] this garbles the very cell a process is about to CAS,
    inside its read-to-CAS window, the sharpest corruption an adversary can
    aim.  One shot; delegates to [inner] otherwise. *)
let corrupt_on_op ~pid ~op ?(nth = 1) inner =
  let seen = ref 0 in
  let last_counted = ref (-1) in
  let done_ = ref false in
  let pick v =
    if (not !done_) && is_runnable v pid && v.op_of pid = Some op then begin
      (* Count each distinct suspension once, not each consultation (same
         accounting as [crash_on_op]). *)
      let steps = v.steps_of pid in
      if steps <> !last_counted then begin
        last_counted := steps;
        incr seen
      end;
      if !seen >= nth then begin
        match v.oid_of pid with
        | Some oid ->
          done_ := true;
          Mem_fault { kind = Event.Corrupt; oid }
        | None -> inner.pick v
      end
      else inner.pick v
    end
    else inner.pick v
  in
  { name = inner.name ^ "+corrupt-on-op"; pick }

(* ---- power-loss nemeses (docs/MODEL.md §13) ---- *)

(* A power cycle is [Power_loss] (storage devices drop their un-synced
   writes, every runnable process halts — one atomic blackout decision),
   then a [Restart] per crashed process (reboot on the recovery function).
   While everything is down the clock is frozen, so the reboot is issued
   immediately — a blackout has no survivors to wait on.  Composed over a
   run without a recovery function, [view.crashed] stays empty and the
   blackout degrades to a permanent whole-system halt, per the nemesis
   convention. *)

(** One deterministic power loss: once the clock reaches [at_clock], cut
    power (drop all un-synced storage writes, halt every runnable
    process), then reboot every crashed process on its recovery
    function. *)
let power_loss_at ~at_clock inner =
  let state = ref `Armed in
  let pick v =
    match !state with
    | `Armed when v.clock >= at_clock ->
      state := `Reboot;
      Power_loss
    | `Reboot when Array.length v.crashed > 0 -> Restart v.crashed.(0)
    | `Reboot ->
      state := `Done;
      inner.pick v
    | `Armed | `Done -> inner.pick v
  in
  { name = Printf.sprintf "%s+power-loss@%d" inner.name at_clock; pick }

(** Seeded power-loss storm: at every decision point, with probability
    [rate], run a full power cycle (at most [max_losses] per run).  All
    randomness derives from [seed]; the schedule replays exactly. *)
let power_storm ~seed ?(rate = 0.005) ?(max_losses = 2) inner =
  let st = Random.State.make [| seed; 0x90EB |] in
  let losses = ref 0 in
  let state = ref `Idle in
  let pick v =
    match !state with
    | `Reboot when Array.length v.crashed > 0 -> Restart v.crashed.(0)
    | `Reboot ->
      state := `Idle;
      inner.pick v
    | `Idle ->
      if
        !losses < max_losses
        && Array.length v.runnable > 0
        && Random.State.float st 1.0 < rate
      then begin
        incr losses;
        state := `Reboot;
        Power_loss
      end
      else inner.pick v
  in
  { name = Printf.sprintf "power-storm(%d)+%s" seed inner.name; pick }

(* ---- network-fault nemeses (docs/MODEL.md §14) ---- *)

(* A partition or a lag spike is several [Net_fault] decisions (one per
   directed link, or per delayed message); a nemesis emits them one
   scheduler consultation at a time through a pending queue, so each ends
   up an individually shrinkable decision in the recorded schedule. *)
let drain queue inner v =
  match !queue with
  | d :: tl ->
    queue := tl;
    d
  | [] -> inner.pick v

(** Seeded partition storm: with probability [rate] at each decision point
    (at most [max_partitions] per run), isolate a uniformly chosen node of
    [victims] from every node of [nodes] — a symmetric partition, one
    [Cut_link] decision per direction per peer — and heal all those links
    [heal_after] clock ticks later.  At most one partition is open at a
    time.  All randomness derives from [seed]; the schedule replays
    exactly. *)
let partition_storm ~seed ~nodes ?victims ?(rate = 0.01) ?(heal_after = 80)
    ?(max_partitions = 3) inner =
  if nodes = [] then invalid_arg "Scheduler.partition_storm: no nodes";
  let victims = match victims with Some vs -> vs | None -> nodes in
  if victims = [] then invalid_arg "Scheduler.partition_storm: no victims";
  let st = Random.State.make [| seed; 0x9A27 |] in
  let queue = ref [] in
  let open_partition = ref None in
  let count = ref 0 in
  let links_of victim =
    List.concat_map
      (fun peer ->
        if peer = victim then []
        else
          [
            Net_fault { kind = Event.Cut_link; src = victim; dst = peer };
            Net_fault { kind = Event.Cut_link; src = peer; dst = victim };
          ])
      nodes
  in
  let heals_of victim =
    List.concat_map
      (fun peer ->
        if peer = victim then []
        else
          [
            Net_fault { kind = Event.Heal_link; src = victim; dst = peer };
            Net_fault { kind = Event.Heal_link; src = peer; dst = victim };
          ])
      nodes
  in
  let pick v =
    (match !open_partition with
    | Some (victim, cut_at) when v.clock >= cut_at + heal_after ->
      open_partition := None;
      queue := !queue @ heals_of victim
    | _ -> ());
    if
      !queue = []
      && !open_partition = None
      && !count < max_partitions
      && Random.State.float st 1.0 < rate
    then begin
      let victim =
        List.nth victims (Random.State.int st (List.length victims))
      in
      incr count;
      open_partition := Some (victim, v.clock);
      queue := links_of victim
    end;
    drain queue inner v
  in
  { name = Printf.sprintf "partition-storm(%d)+%s" seed inner.name; pick }

(** One deterministic partition window: once the clock reaches [at_clock],
    cut [victim] off from every node of [peers] (both directions), then
    heal all those links [after] clock ticks later — the targeted
    quorum-loss scenario ("replica 2 is unreachable from clock 40 to
    120"). *)
let heal_after ~victim ~peers ~at_clock ~after inner =
  let queue = ref [] in
  let state = ref `Armed in
  let links kind =
    List.concat_map
      (fun peer ->
        if peer = victim then []
        else
          [
            Net_fault { kind; src = victim; dst = peer };
            Net_fault { kind; src = peer; dst = victim };
          ])
      peers
  in
  let pick v =
    (match !state with
    | `Armed when v.clock >= at_clock ->
      state := `Cut v.clock;
      queue := !queue @ links Event.Cut_link
    | `Cut c when v.clock >= c + after ->
      state := `Done;
      queue := !queue @ links Event.Heal_link
    | _ -> ());
    drain queue inner v
  in
  { name = Printf.sprintf "%s+heal-after@%d" inner.name at_clock; pick }

(** Seeded duplicate-delivery flood: with probability [rate] at each
    decision point (at most [max_dups] per run), duplicate the oldest
    in-flight message on a uniformly chosen loaded link.  [inflight] lists
    the directed links currently carrying at least one message (the
    transport exposes it; absorbed-if-empty keeps replay safe). *)
let dup_flood ~seed ~inflight ?(rate = 0.05) ?(max_dups = 16) inner =
  let st = Random.State.make [| seed; 0xD0B1 |] in
  let dups = ref 0 in
  let pick v =
    if !dups < max_dups && Random.State.float st 1.0 < rate then begin
      let links = inflight () in
      if Array.length links = 0 then inner.pick v
      else begin
        let src, dst = links.(Random.State.int st (Array.length links)) in
        incr dups;
        Net_fault { kind = Event.Dup_msg; src; dst }
      end
    end
    else inner.pick v
  in
  { name = Printf.sprintf "dup-flood(%d)+%s" seed inner.name; pick }

(** Seeded lag spikes: with probability [rate] at each decision point (at
    most [max_spikes] per run), reorder a burst of [burst] messages on a
    uniformly chosen loaded link — each delay pushes the link's oldest
    message behind its newest, so a spike scrambles the delivery order of
    a whole protocol round. *)
let lag_spike ~seed ~inflight ?(rate = 0.02) ?(burst = 4) ?(max_spikes = 6)
    inner =
  let st = Random.State.make [| seed; 0x1A95 |] in
  let spikes = ref 0 in
  let queue = ref [] in
  let pick v =
    if !queue = [] && !spikes < max_spikes && Random.State.float st 1.0 < rate
    then begin
      let links = inflight () in
      if Array.length links > 0 then begin
        let src, dst = links.(Random.State.int st (Array.length links)) in
        incr spikes;
        queue :=
          List.init burst (fun _ ->
              Net_fault { kind = Event.Delay_msg; src; dst })
      end
    end;
    drain queue inner v
  in
  { name = Printf.sprintf "lag-spike(%d)+%s" seed inner.name; pick }

(* ---- permanent-failure nemeses (docs/MODEL.md §16) ---- *)

(** Seeded permanent replica deaths: with probability [rate] at each
    decision point (at most [max_deaths] per run), crash a uniformly
    chosen runnable pid of [victims] — and never restart it.  The machine
    is gone for good; recovering the {e service} is the membership
    layer's job, not the scheduler's.  Composing this nemesis with one
    that restarts from [view.crashed] (e.g. {!crash_storm}) would undo
    the permanence; compose with {!partition_storm}/{!config_churn}
    instead. *)
let replica_death ~seed ~victims ?(rate = 0.01) ?(max_deaths = 1) inner =
  if victims = [] then invalid_arg "Scheduler.replica_death: no victims";
  let st = Random.State.make [| seed; 0xDEAD |] in
  let killed = ref 0 in
  let pick v =
    if
      !killed < max_deaths
      && Array.length v.runnable > 1
      && Random.State.float st 1.0 < rate
    then begin
      let alive = List.filter (fun p -> is_runnable v p) victims in
      match alive with
      | [] -> inner.pick v
      | _ ->
        let p = List.nth alive (Random.State.int st (List.length alive)) in
        incr killed;
        Crash p
    end
    else inner.pick v
  in
  { name = Printf.sprintf "replica-death(%d)+%s" seed inner.name; pick }

(** Deterministic rolling restart: crash each pid of [victims] in turn —
    the first once the clock reaches [start_at], each subsequent one [gap]
    ticks after the previous victim came back — keeping each down for
    [down_for] ticks before restarting it.  At most one victim is down at
    a time, the maintenance-window discipline of a rolling upgrade.
    Composed over a run without a recovery function the first crash is
    permanent and the roll stops (nemesis convention). *)
let rolling_restart ~victims ?(start_at = 40) ?(gap = 40) ?(down_for = 40)
    inner =
  let rest = ref victims in
  let state = ref (`Armed start_at) in
  let pick v =
    match (!state, !rest) with
    | `Armed at, p :: _ when v.clock >= at && is_runnable v p ->
      state := `Down v.clock;
      Crash p
    | `Down c, p :: tl
      when is_restartable v p
           && (v.clock >= c + down_for || Array.length v.runnable = 0) ->
      (* When nothing is runnable the clock is frozen: restart now rather
         than livelock. *)
      rest := tl;
      state := `Armed (v.clock + gap);
      Restart p
    | _ -> inner.pick v
  in
  { name = inner.name ^ "+rolling-restart"; pick }

(** Seeded configuration churn: with probability [rate] at each decision
    point (at most [max_reconfigs] per run), emit a {!Reconfig} decision —
    asking the membership manager to propose a replacement configuration
    even though nothing failed.  Layer it over {!partition_storm} to
    reconfigure mid-partition, the handoff-under-split-brain-pressure
    scenario epoch fencing exists for. *)
let config_churn ~seed ?(rate = 0.004) ?(max_reconfigs = 3) inner =
  let st = Random.State.make [| seed; 0xC0F6 |] in
  let count = ref 0 in
  let pick v =
    if
      !count < max_reconfigs
      && Array.length v.runnable > 0
      && Random.State.float st 1.0 < rate
    then begin
      incr count;
      Reconfig
    end
    else inner.pick v
  in
  { name = Printf.sprintf "config-churn(%d)+%s" seed inner.name; pick }
