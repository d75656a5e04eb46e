(* Online reconfiguration of the replicated snapshot service
   (docs/MODEL.md §16): the membership/health policy layer over
   [Net_abd]'s protocol rounds.

   The manager is a single sequencer.  A reconfiguration to a target
   configuration runs in two phases:

   1. {e seal} the current configuration — [Net_abd.collect_state]
      broadcasts [Seal] to the old members and merges a read quorum of
      state snapshots; under fencing every ack also closes its replica to
      the old epoch, so no write can commit at the old configuration
      after the collected state is fixed (quorum intersection);
   2. {e transfer and activate} — [Net_abd.install_state] writes the
      merged state under the new epoch to a write quorum of the new
      members, then the manager durably records the new configuration as
      current.  Retired replicas stay sealed and drain until the client
      sessions close.

   The manager's durable state (current configuration + the
   write-ahead proposed target) lives in one simulated memory cell, so a
   crashed-and-restarted manager resumes: epochs are proposed durably
   {e before} the seal, which makes them never reused, and an interrupted
   reconfiguration is re-driven to completion (both phases are
   idempotent).

   Health: the manager probes current members round-robin with bounded
   silent-step timeouts ([Net_abd.probe]); a member missing
   [miss_threshold] consecutive probes is suspected and a replacement
   configuration is proposed, swapping in the lowest-numbered pool node
   that is neither a member nor previously suspected (permanently-dead
   nodes must not be re-admitted — their fibers are gone).  When the
   spare pool is exhausted the configuration shrinks, never below one
   member.

   Churn: a [Scheduler.Reconfig] decision reaches the manager through
   [Sim.set_reconfig_dispatcher] as a rotation request — replace the
   lowest member with the lowest unused healthy pool node (or re-issue
   the same members under a fresh epoch when no spare is available),
   which exercises seal/transfer/activate even while a partition storm
   rages.

   Naive mode ([Naive]) drops the fence: replicas answer every epoch and
   the collect round snapshots without sealing, so a write concurrent
   with the transfer can commit at old members only and be missing from
   the new epoch — the split-brain lost write of the E21 witness.  The
   two-phase structure and the durable epochs are kept; the {e only}
   difference is the missing fence, which is exactly the point. *)

module Sim_k = Psnap_sched.Sim
module Msim = Psnap_sched.Mem_sim
module Metrics = Psnap_sched.Metrics

type mode = Fenced | Naive

(* Manager durable state.  [proposed] is the write-ahead record: set
   before the seal, cleared at activation. *)
type mstate = { cur : Net_abd.config; proposed : Net_abd.config option }

type t = {
  c : Net_abd.sim_cluster;
  mode : mode;
  state : mstate Msim.ref_;
  churn : bool ref;  (* set by the [Reconfig] decision dispatcher *)
  misses : int array;  (* per pool node: consecutive missed probes *)
  suspected : bool array;  (* per pool node: sticky — never re-admitted *)
  miss_threshold : int;
  probe_budget : int;
  mutable probe_at : int;  (* round-robin cursor into the member list *)
  mutable reconfigs : int;
  max_reconfigs : int;
}

let attach ?(mode = Fenced) ?(miss_threshold = 4) ?(probe_budget = 24)
    ?(max_reconfigs = 8) c =
  (match Net_abd.manager_node c with
  | Some _ -> ()
  | None ->
      invalid_arg
        "Net_reconfig.attach: build the cluster with ~spares or \
         ~with_manager");
  Net_abd.set_fenced c (mode = Fenced);
  Net_abd.set_reconfig_active c true;
  let pool = Net_abd.pool c in
  let t =
    {
      c;
      mode;
      state =
        Msim.make ~name:"reconfig.manager.state"
          { cur = Net_abd.initial_config c; proposed = None };
      churn = ref false;
      misses = Array.make pool 0;
      suspected = Array.make pool false;
      miss_threshold;
      probe_budget;
      probe_at = 0;
      reconfigs = 0;
      max_reconfigs;
    }
  in
  Sim_k.set_reconfig_dispatcher (fun () ->
      if !(t.churn) then false
      else begin
        t.churn := true;
        Metrics.(incr Reconfig.churn_requests);
        true
      end);
  t

let detach t =
  ignore t;
  Sim_k.clear_reconfig_dispatcher ()

let mode t = t.mode

(* Observability (pre-run / post-mortem: reads the cell directly). *)
let current_config t = (Msim.read t.state).cur
let reconfig_count t = t.reconfigs

let suspected_nodes t =
  let clients = Net_abd.clients t.c in
  let acc = ref [] in
  Array.iteri (fun i s -> if s then acc := (clients + i) :: !acc) t.suspected;
  List.rev !acc

(* ---- replacement selection (deterministic) ---- *)

(* Healthy pool nodes not in [members] and never suspected, lowest
   first. *)
let spare_candidates t members =
  List.filter
    (fun n ->
      (not (List.mem n members))
      && not t.suspected.(n - Net_abd.clients t.c))
    (Net_abd.pool_nodes t.c)

(* Replacement after suspicions: drop every suspected member, refill from
   the spare candidates up to the old size; never below one member. *)
let replacement_members t members =
  let clients = Net_abd.clients t.c in
  let alive =
    List.filter (fun n -> not t.suspected.(n - clients)) members
  in
  let want = List.length members in
  let rec refill acc spares =
    if List.length acc >= want then acc
    else
      match spares with [] -> acc | s :: tl -> refill (acc @ [ s ]) tl
  in
  let next = refill alive (spare_candidates t members) in
  if next = [] then None else Some next

(* Rotation on a churn request: swap the lowest member for the lowest
   unused healthy pool node; with no spare available, re-issue the same
   members under a fresh epoch (still a full seal/transfer/activate). *)
let rotation_members t members =
  match (members, spare_candidates t members) with
  | _ :: rest, s :: _ -> rest @ [ s ]
  | _, [] | [], _ -> members

(* ---- the two-phase reconfiguration ---- *)

(* Drive one reconfiguration to [target].  [false] means a phase could
   not reach its quorum — the durable [proposed] record stays and the
   manager loop re-drives it (both phases are idempotent). *)
let reconfigure t ~(target : Net_abd.config) =
  let ctx = Net_abd.manager_ctx t.c in
  let st = Msim.read t.state in
  (* write-ahead: the epoch is burned before any replica seals *)
  if st.proposed <> Some target then
    Msim.write t.state { st with proposed = Some target };
  match
    (try Some (Net_abd.collect_state ctx ~cfg:st.cur)
     with Net_abd.Unavailable _ -> None)
  with
  | None -> false
  | Some x -> (
      match
        (try
           Net_abd.install_state ctx ~cfg:target x;
           Some ()
         with Net_abd.Unavailable _ -> None)
      with
      | None -> false
      | Some () ->
          Msim.write t.state { cur = target; proposed = None };
          t.reconfigs <- t.reconfigs + 1;
          Metrics.(incr Reconfig.reconfigs);
          (match t.mode with
          | Fenced -> Metrics.(incr Reconfig.activations)
          | Naive -> Metrics.(incr Reconfig.naive_swaps));
          (* the replaced members' miss counters start afresh *)
          List.iter
            (fun n -> t.misses.(n - Net_abd.clients t.c) <- 0)
            target.members;
          true)

let next_epoch (st : mstate) =
  1
  + max st.cur.epoch
      (match st.proposed with Some p -> p.epoch | None -> st.cur.epoch)

let propose t members =
  let st = Msim.read t.state in
  reconfigure t ~target:{ epoch = next_epoch st; members }

(* ---- health probing ---- *)

(* One probe step: ping the member under the round-robin cursor; a miss
   past the threshold marks it suspected (sticky) and triggers a
   replacement proposal. *)
let probe_step t =
  let st = Msim.read t.state in
  let members = st.cur.members in
  let n = List.length members in
  if n = 0 then ()
  else begin
    let node = List.nth members (t.probe_at mod n) in
    t.probe_at <- t.probe_at + 1;
    let i = node - Net_abd.clients t.c in
    if not t.suspected.(i) then begin
      let ctx = Net_abd.manager_ctx t.c in
      if Net_abd.probe ctx ~node ~budget:t.probe_budget then t.misses.(i) <- 0
      else begin
        t.misses.(i) <- t.misses.(i) + 1;
        if t.misses.(i) >= t.miss_threshold then begin
          t.suspected.(i) <- true;
          Metrics.(incr Reconfig.suspicions);
          match replacement_members t members with
          | Some next when next <> members ->
              Metrics.(incr Reconfig.replacements);
              ignore (reconfigure t ~target:{ epoch = next_epoch (Msim.read t.state); members = next })
          | _ -> ()
        end
      end
    end
  end

(* ---- the manager fiber ---- *)

(* Single sequencer: recover an interrupted reconfiguration, serve churn
   requests, probe for health; retire when the client sessions close.
   Correct as its own restart body — everything it needs is in the
   durable state cell. *)
let manager_body t () =
  let rec loop () =
    let st = Msim.read t.state in
    (* the bootstrap read above also sets the fiber's pid on entry *)
    if not (Net_abd.sessions_open t.c) then ()
    else begin
      (match st.proposed with
      | Some target when target.epoch > st.cur.epoch ->
          (* interrupted mid-flight (crash or missed quorum): re-drive *)
          ignore (reconfigure t ~target)
      | _ ->
          if !(t.churn) then begin
            t.churn := false;
            if t.reconfigs < t.max_reconfigs then
              ignore (propose t (rotation_members t st.cur.members))
          end
          else if t.reconfigs < t.max_reconfigs then probe_step t);
      loop ()
    end
  in
  loop ()

(* ---- loadgen (multicore) variant ---- *)

(* Under the loadgen the control thread is the sequencer: no crash model
   applies to it, so the durable cell and the dispatcher are unnecessary;
   what remains is the same two-phase protocol over [mc_manager_ctx]. *)
type mc_t = {
  mc : Net_abd.mc_cluster;
  mc_mode : mode;
  mutable mc_cur : Net_abd.config;
  mutable mc_sealed : (Net_abd.config * Net_abd.xfer) option;
      (* a target whose seal phase completed, with the state it
         collected: its install may have reached members that now
         refuse the old epoch's [Seal], so a retry re-drives the install
         alone *)
}

let mc_attach ?(mode = Fenced) mc =
  Net_abd.mc_set_fenced mc (mode = Fenced);
  Net_abd.mc_set_reconfig_active mc true;
  { mc; mc_mode = mode; mc_cur = Net_abd.mc_config mc; mc_sealed = None }

let mc_current_config t = t.mc_cur

(* [mc_reconfigure t ~members] — seal the current configuration, transfer
   to [members] under a fresh epoch, activate by publishing the new
   configuration to the shared cell.
   @raise Net_abd.Unavailable when a phase cannot reach its quorum (the
   caller decides whether the service is permanently lost).  A retry for
   the same members resumes after the last completed phase. *)
let mc_reconfigure t ~members =
  let target : Net_abd.config = { epoch = t.mc_cur.epoch + 1; members } in
  let ctx = Net_abd.mc_manager_ctx t.mc in
  let x =
    match t.mc_sealed with
    | Some (sealed, x) when sealed = target -> x
    | _ ->
      let x = Net_abd.collect_state ctx ~cfg:t.mc_cur in
      t.mc_sealed <- Some (target, x);
      x
  in
  Net_abd.install_state ctx ~cfg:target x;
  t.mc_sealed <- None;
  t.mc_cur <- target;
  Net_abd.mc_set_config t.mc target;
  Metrics.(incr Reconfig.reconfigs);
  (match t.mc_mode with
  | Fenced -> Metrics.(incr Reconfig.activations)
  | Naive -> Metrics.(incr Reconfig.naive_swaps));
  target
