open Psnap

type workload = {
  m : int;
  r : int;
  updaters : int;
  updates : int;
  scanners : int;
  scans : int;
}

type 'v world = {
  procs : (unit -> unit) array;
  recover : Sim.recover;
  harvest : unit -> 'v list;
}

type totals = {
  runs : int;
  steps : int;
  crashes : int;
  restarts : int;
  violations : int;
  samples : Metrics.sample list list;
  replayed : bool;
}

type report = {
  print : unit -> unit;
  fields : (string * string) list;
  clean : totals -> string;
  ok : totals -> bool;
}

type 'v t = {
  impl : string;
  shape : string;
  updater_pids : int list;
  scanner_pids : int list;
  inject : seed:int -> Scheduler.t -> Scheduler.t;
  groups : Metrics.group list;
  build : Metrics.recorder -> 'v world;
  pp_violation : 'v Fmt.t;
  checked : bool;
  expected : string;
  report : unit -> report;
  max_steps : int;
}

type power = No_power_loss | Power_at of int | Power_storm | Power_sweep

exception Usage of string

let usage fmt = Printf.ksprintf (fun s -> raise (Usage s)) fmt
let int = string_of_int
let str = Printf.sprintf "%S"

(* ---- the standard snapshot workload ---- *)

(* Generous for every scenario's terminating executions (their busiest
   CI campaigns stay far below it), so an execution that exhausts it is
   judged not to terminate. *)
let steps_per_op = 10_000

let step_budget w =
  steps_per_op * max 1 ((w.updaters * w.updates) + (w.scanners * w.scans))

let check_shape w =
  if w.r > w.m then usage "r (%d) must be <= m (%d)" w.r w.m

let init w = Array.init w.m (fun i -> -(i + 1))

let shape w =
  Printf.sprintf "m=%d r=%d %d updaters x %d, %d scanners x %d" w.m w.r
    w.updaters w.updates w.scanners w.scans

(* Update [k] of [pid]'s incarnation: component and a value no other
   operation ever writes. *)
let target w ~pid ~incarnation k =
  ((k + (pid * 7)) mod w.m, (pid * 1_000_000) + (incarnation * 10_000) + k)

(* Scanner [pid]'s components, sorted: scan order fixes step order, so the
   committed witnesses depend on it. *)
let scan_set w pid =
  Array.init w.r (fun k ->
      ((pid - w.updaters) + (k * (w.m / max w.r 1))) mod w.m)
  |> Array.to_list |> List.sort_uniq compare |> Array.of_list

let record hist ~pid op f =
  match hist with
  | Some h -> ignore (History.record h ~pid op f)
  | None -> ignore (f ())

(* A fiber's handle on the object, opened in its step-free prologue. *)
type session = {
  update : int -> int -> unit;
  scan : int array -> int array;
  collects : unit -> int;
}

(* Updaters write unique values, scanners scan their set; every operation
   is measured and, with a history, recorded.  [attempt] wraps each
   operation (the quorum backend absorbs [Unavailable] there). *)
let snapshot_body w rec_ hist ~worst_collects ?(attempt = fun f -> f ())
    open_ ~incarnation pid () =
  let s = open_ ~incarnation pid in
  if pid < w.updaters then
    for k = 1 to w.updates do
      let i, v = target w ~pid ~incarnation k in
      attempt (fun () ->
          Metrics.measure rec_ ~pid ~kind:"update" (fun () ->
              record hist ~pid (Snapshot_spec.Update (i, v)) (fun () ->
                  s.update i v;
                  Snapshot_spec.Ack)))
    done
  else
    let idxs = scan_set w pid in
    for _ = 1 to w.scans do
      attempt (fun () ->
          Metrics.measure rec_ ~pid ~kind:"scan" (fun () ->
              record hist ~pid (Snapshot_spec.Scan idxs) (fun () ->
                  Snapshot_spec.Vals (s.scan idxs))));
      worst_collects := max !worst_collects (s.collects ())
    done

let check_history hist ~init =
  match hist with
  | Some h -> Snapshot_spec.check_observations ~init (History.entries h)
  | None -> []

(* Defaults for the fields most scenarios leave alone. *)
let base ~pp_violation w ~impl ~shape ~groups ~build ~report =
  {
    impl;
    shape;
    updater_pids = List.init w.updaters Fun.id;
    scanner_pids = List.init w.scanners (fun j -> w.updaters + j);
    inject = (fun ~seed:_ s -> s);
    groups;
    build;
    pp_violation;
    checked = true;
    expected = "";
    report;
    max_steps = step_budget w;
  }

let linearizable t =
  Printf.sprintf "all %d executions linearizable (observation check)" t.runs

let no_extra _ = true

(* ---- any snapshot implementation on simulated memory ---- *)

let flat (module S : Snapshot.S) w ~check =
  check_shape w;
  let init = init w in
  let worst_collects = ref 0 in
  let build rec_ =
    let hist = if check then Some (History.create ~now:Sim.mark ()) else None in
    (* Cells built outside the run get prerun oids; memory-fault schedules
       target cells by oid, so they must be a pure function of the
       workload. *)
    Sim.reset_prerun_oids ();
    let t = S.create ~n:(w.updaters + w.scanners) (Array.copy init) in
    let body =
      snapshot_body w rec_ hist ~worst_collects (fun ~incarnation:_ pid ->
          let h = S.handle t ~pid in
          { update = S.update h; scan = S.scan h;
            collects = (fun () -> S.last_scan_collects h) })
    in
    {
      procs = Array.init (w.updaters + w.scanners) (body ~incarnation:1);
      recover = (fun ~pid ~incarnation -> body ~incarnation pid);
      harvest = (fun () -> check_history hist ~init);
    }
  in
  let report () =
    {
      print =
        (fun () ->
          Printf.printf "worst collects per scan: %d\n" !worst_collects);
      fields = [];
      clean = linearizable;
      ok = no_extra;
    }
  in
  {
    (base ~pp_violation:Snapshot_spec.pp_violation w ~impl:S.name
       ~shape:(shape w) ~groups:[ Metrics.Serving.group ] ~build ~report)
    with
    checked = check;
    expected = "raw registers under memory faults";
  }

(* ---- the resilient serving front ---- *)

let max_rounds = Runtime.Resilient.Defaults.max_rounds

let partition = `Round_robin

let resilient ~shards ~stick_epoch ~stall_shard ~slow_pid w =
  check_shape w;
  let module RS =
    Runtime.Resilient.Make (Mem.Sim) (On_selfcheck.Fig3) (On_replicated.Fig3)
      (struct
        let shards = shards
        let partition = partition
        include Runtime.Resilient.Defaults
      end)
  in
  let init = init w in
  let place = Runtime.Placement.make partition ~shards ~m:w.m in
  let atomic = ref 0 and overruns = ref 0 in
  let post_heal = ref 0 and worst_rounds = ref 0 and worst_collects = ref 0 in
  let build rec_ =
    let hist = History.create ~now:Sim.mark () in
    (* Atomic scans are appended as hand-built entries: Degraded scans must
       not reach the checker (their cross-shard skew is declared, not a
       bug), and History.record cannot un-record an operation after its
       outcome is known. *)
    let atomic_entries = ref [] in
    Sim.reset_prerun_oids ();
    Mem.Hardened.reset_stats ();
    let t = RS.create ~n:(w.updaters + w.scanners) (Array.copy init) in
    let updater =
      snapshot_body w rec_ (Some hist) ~worst_collects
        (fun ~incarnation:_ pid ->
          let h = RS.handle t ~pid in
          { update = RS.update h; scan = RS.scan h; collects = (fun () -> 0) })
    in
    let scanner pid () =
      let h = RS.handle t ~pid in
      let idxs = scan_set w pid in
      for _ = 1 to w.scans do
        let inv = Sim.mark () in
        let out =
          Metrics.measure rec_ ~pid ~kind:"scan" (fun () ->
              RS.scan_outcome h idxs)
        in
        let resp = Sim.mark () in
        let rounds = RS.last_scan_rounds h in
        worst_rounds := max !worst_rounds rounds;
        worst_collects := max !worst_collects (RS.last_scan_collects h);
        if rounds > max_rounds then incr overruns;
        match out with
        | RS.Atomic vs ->
          incr atomic;
          atomic_entries :=
            {
              History.pid;
              op = Snapshot_spec.Scan idxs;
              res = Some (Snapshot_spec.Vals vs);
              inv;
              resp = Some resp;
            }
            :: !atomic_entries;
          (match stick_epoch with
          | Some s
            when Array.exists
                   (fun i -> fst (Runtime.Placement.locate place i) = s)
                   idxs
                 && RS.shard_gen t ~pid s > 1 ->
            incr post_heal
          | _ -> ())
        | RS.Degraded _ -> ()
      done
    in
    let body ~incarnation pid =
      if pid < w.updaters then updater ~incarnation pid else scanner pid
    in
    {
      procs = Array.init (w.updaters + w.scanners) (body ~incarnation:1);
      recover = (fun ~pid ~incarnation -> body ~incarnation pid);
      harvest =
        (fun () ->
          Snapshot_spec.check_observations ~init
            (History.entries hist @ !atomic_entries));
    }
  in
  let inject ~seed:_ s =
    let s =
      match stick_epoch with
      | Some sh ->
        Scheduler.mem_fault_on_cell ~kind:Event.Stuck_cell
          ~name_prefix:(Printf.sprintf "rshard%d.epoch" sh)
          s
      | None -> s
    in
    let s =
      match stall_shard with
      | Some sh ->
        Scheduler.stall_shard ~shard:sh ~from_clock:50 ~until_clock:450 s
      | None -> s
    in
    match slow_pid with Some p -> Scheduler.slow_domain ~pid:p s | None -> s
  in
  let report () =
    let degraded = Metrics.(get Serving.degraded_scans) in
    let healed = Metrics.(get Serving.heals_completed) in
    let ok _ =
      let fine = ref true in
      let fail fmt = fine := false; Printf.printf fmt in
      if !overruns > 0 then
        fail "budget: %d scans exceeded %d rounds without degrading\n" !overruns
          max_rounds;
      (match stick_epoch with
      | Some _ when healed = 0 ->
        fail "heal: stuck epoch injected but no shard rebuild completed\n"
      | Some _ when !post_heal = 0 ->
        fail "heal: shard rebuilt but no fully-validated scan touched it \
              afterwards\n"
      | Some _ ->
        Printf.printf
          "heal: %d rebuild(s) completed, %d validated post-rebuild scans\n"
          healed !post_heal
      | None -> ());
      !fine
    in
    {
      print =
        (fun () ->
          Printf.printf
            "scans: %d atomic, %d degraded; worst rounds %d (budget %d), \
             worst collects %d\n"
            !atomic degraded !worst_rounds max_rounds !worst_collects);
      fields =
        [
          ("atomic_scans", int !atomic);
          ("budget_overruns", int !overruns);
          ("post_heal_atomic_scans", int !post_heal);
          ("worst_rounds", int !worst_rounds);
        ];
      clean =
        (fun _ ->
          Printf.sprintf "all %d atomic scans linearizable (observation check)"
            !atomic);
      ok;
    }
  in
  let opt name = function
    | Some s -> Printf.sprintf ", %s %d" name s
    | None -> ""
  in
  {
    (base ~pp_violation:Snapshot_spec.pp_violation w ~impl:RS.name
       ~groups:[ Metrics.Serving.group ] ~build ~report
       ~shape:
         (shape w ^ opt "stick-epoch shard" stick_epoch
         ^ opt "stall shard" stall_shard ^ opt "slow pid" slow_pid))
    with
    inject;
  }

(* ---- the durable Figure 3 under power losses ----

   A restarted fiber first asks the device whether a blackout condemned
   the in-memory state (the loss counter moved): if so, the first such
   fiber rebuilds the object from the log — step-free, hence atomic under
   the simulator — and later fibers adopt it; if not (a plain
   crash–restart), the object survives and the fiber merely completes any
   commit intent its dead incarnation left published in the lock.  The
   history runs across the blackout, so the checker sees pre-loss
   acknowledgements next to post-recovery scans and flags any
   committed-then-lost or resurrected-uncommitted value. *)

let durable ~config ~power w =
  check_shape w;
  let module D = Sim_durable_fig3 in
  let module St = Persist.Storage.Sim in
  let init = init w in
  let n = w.updaters + w.scanners in
  let worst_collects = ref 0 in
  let build rec_ =
    let hist = History.create ~now:Sim.mark () in
    Sim.reset_prerun_oids ();
    St.reset ();
    let cur = ref (D.create_with ~config ~n (Array.copy init)) in
    let seen_losses = ref 0 in
    (* Runs in a restarted fiber's step-free prologue: no peer can observe
       a half-recovered object. *)
    let rebuild_if_power_lost () =
      let dev = D.storage !cur in
      let l = St.losses dev in
      if l > !seen_losses then begin
        seen_losses := l;
        cur := D.recover ~config dev ~n init
      end
    in
    let body =
      snapshot_body w rec_ (Some hist) ~worst_collects (fun ~incarnation pid ->
          if incarnation > 1 then rebuild_if_power_lost ();
          let h = D.handle !cur ~pid in
          (* After a plain crash–restart the commit lock may still hold
             this updater's published intent; after a power loss the lock
             is fresh and this is a no-op. *)
          if incarnation > 1 && pid < w.updaters then D.resume h;
          { update = D.update h; scan = D.scan h;
            collects = (fun () -> D.last_scan_collects h) })
    in
    {
      procs = Array.init n (body ~incarnation:1);
      recover = (fun ~pid ~incarnation -> body ~incarnation pid);
      harvest = (fun () -> check_history (Some hist) ~init);
    }
  in
  let report () =
    let recoveries = Metrics.(get Durable.recoveries) in
    let power_losses = Metrics.(get Durable.power_losses) in
    let ok (t : totals) =
      match power with
      | Power_sweep when recoveries = 0 ->
        Printf.printf
          "recovery: power-loss sweep completed without a single rebuild\n";
        false
      | Power_storm when power_losses = 0 && not t.replayed ->
        Printf.printf
          "power-loss: storm requested but no blackout fired (run too \
           short?)\n";
        true
      | _ -> true
    in
    {
      print =
        (fun () ->
          Printf.printf "worst collects per scan: %d\n" !worst_collects);
      fields =
        [
          ( "power_loss",
            str
              (match power with
              | No_power_loss -> "none"
              | Power_at c -> int c
              | Power_storm -> "storm"
              | Power_sweep -> "sweep") );
          ( "wal_mode",
            str (if config.D.write_ahead then "write-ahead" else "late-log") );
          ("checkpoint_every", int config.D.checkpoint_every);
        ];
      clean =
        (fun t ->
          Printf.sprintf
            "all %d executions durably linearizable (observation check)"
            t.runs);
      ok;
    }
  in
  {
    (base ~pp_violation:Snapshot_spec.pp_violation w ~impl:D.name
       ~groups:[ Metrics.Durable.group ] ~build ~report
       ~shape:
         (shape w ^ if config.D.write_ahead then "" else ", wal-mode late-log"))
    with
    expected = "late-log mode acknowledges before the barrier";
  }

(* ---- MVCC transactions under the snapshot-isolation oracle ---- *)

let txn ~mode w =
  check_shape w;
  let module T = Sim_txn_fig3 in
  let init = init w in
  let n = w.updaters + w.scanners in
  let build rec_ =
    Sim.reset_prerun_oids ();
    let t = T.create ~mode ~n (Array.copy init) in
    (* Every transaction ever begun — outcome is a mutable field, so even a
       crashed fiber's transaction reports its final state — plus the
       observations [resume] synthesizes for commits rolled forward past a
       crash. *)
    let txns = ref [] and resumed = ref [] in
    let body ~incarnation pid () =
      let h = T.handle t ~pid in
      (* a dead scanner's announce slot pins the pruning watermark; clear
         it like a committer would *)
      if incarnation > 1 then
        Option.iter (fun o -> resumed := o :: !resumed) (T.resume h);
      let run kind f =
        Metrics.measure rec_ ~pid ~kind (fun () ->
            let x = T.begin_ h in
            txns := x :: !txns;
            f x;
            ignore (T.commit x))
      in
      if pid < w.updaters then
        for k = 1 to w.updates do
          let i, v = target w ~pid ~incarnation k in
          (* read-modify-write: the canonical lost-update shape *)
          run "rw-txn" (fun x ->
              ignore (T.read x i);
              T.write x i v)
        done
      else
        let idxs = scan_set w pid in
        for _ = 1 to w.scans do
          run "ro-txn" (fun x -> ignore (T.read_many x idxs))
        done
    in
    let harvest () =
      (* the txn record is richer (it has the reads); a resume observation
         of the same txid only fills in a crashed fiber's silence *)
      let seen = Hashtbl.create 64 in
      List.filter_map T.observation !txns @ !resumed
      |> List.filter (fun (o : int Si_check.obs) ->
             (not (Hashtbl.mem seen o.Si_check.txid))
             && (Hashtbl.add seen o.Si_check.txid (); true))
      |> Si_check.check ~init
    in
    {
      procs = Array.init n (body ~incarnation:1);
      recover = (fun ~pid ~incarnation -> body ~incarnation pid);
      harvest;
    }
  in
  let report () =
    {
      print = ignore;
      fields =
        [
          ("txn_mode", str (Txn.mode_to_string mode));
          ("abort_rate", Printf.sprintf "%.4f" (Metrics.Txn.abort_rate ()));
        ];
      clean =
        (fun t ->
          Printf.sprintf
            "all %d executions snapshot-isolated (SI observation check)"
            t.runs);
      ok = no_extra;
    }
  in
  {
    (base ~pp_violation:(Si_check.pp_violation Format.pp_print_int) w
       ~impl:T.name ~groups:[ Metrics.Txn.group ] ~build ~report
       ~shape:(shape w ^ ", mode " ^ Txn.mode_to_string mode))
    with
    expected = "last-writer-wins skips first-committer-wins validation";
  }

(* ---- snapshot algorithms over ABD quorum registers ---- *)

(* Network nemeses over [nodes]; [victim] is the first replica. *)
let net_nemesis_of name ~rate ~nodes ~victim =
  let inflight = Net.Transport.Sim.inflight_links in
  match name with
  | "none" -> fun ~seed:_ s -> s
  | "partition_storm" ->
    (* The heal window must dwarf a quorum operation (tens of polls per
       phase times the attempt budget), or partitions heal before anyone
       notices: long windows are what starve a cut client into
       [Unavailable] — and what give weak mode's missing write-back time
       to surface as a new/old inversion. *)
    fun ~seed s ->
      Scheduler.partition_storm ~seed ~nodes ~rate ~heal_after:4000 s
  | "heal_after" when victim <> None ->
    (* the targeted quorum-loss window: the first replica is gone *)
    fun ~seed:_ s ->
      Scheduler.heal_after ~victim:(Option.get victim) ~peers:nodes
        ~at_clock:60 ~after:150 s
  | "dup_flood" -> fun ~seed s -> Scheduler.dup_flood ~seed ~inflight ~rate s
  | "lag_spike" -> fun ~seed s -> Scheduler.lag_spike ~seed ~inflight ~rate s
  | s ->
    usage
      "unknown --net-nemesis %S (choose from: none, partition_storm, \
       %sdup_flood, lag_spike)"
      s
      (if victim = None then "" else "heal_after, ")

let net_shape name = if name = "none" then "" else ", net-nemesis " ^ name

(* The workload's shared cells are quorum registers served by [replicas]
   replica fibers (pids after the clients) over the simulated transport.
   Crash nemeses may hit clients (their restart closes the session, the
   pending operation stays pending) and replicas (their restart resumes
   serving from the durable store cell). *)
let net (module S : Snapshot.S) ~mode ~replicas ~net_nemesis ~net_rate w
    ~check =
  check_shape w;
  if replicas < 1 then usage "--replicas must be >= 1";
  let module A = Net.Abd in
  let init = init w in
  let n = w.updaters + w.scanners in
  let worst_collects = ref 0 and unavailable = ref 0 in
  let injected = ref 0 and absorbed = ref 0 in
  let build rec_ =
    let hist = if check then Some (History.create ~now:Sim.mark ()) else None in
    (* The cluster's transport and store cells are prerun cells too. *)
    Sim.reset_prerun_oids ();
    let cl = A.cluster ~mode ~clients:n ~replicas () in
    let t = S.create ~n (Array.copy init) in
    (* An [Unavailable] op is recorded as pending (it may or may not have
       taken effect — exactly what the observation checker admits); the
       client moves on to its next operation. *)
    let attempt f = try f () with Net.Unavailable _ -> incr unavailable in
    let client =
      snapshot_body w rec_ hist ~worst_collects ~attempt
        (fun ~incarnation:_ pid ->
          let h = S.handle t ~pid in
          { update = S.update h; scan = S.scan h;
            collects = (fun () -> S.last_scan_collects h) })
    in
    let replica pid = A.replica_body cl ~index:(pid - n) in
    {
      procs =
        Array.init (n + replicas) (fun pid ->
            if pid < n then A.wrap_client cl ~pid (client ~incarnation:1 pid)
            else replica pid);
      recover =
        (fun ~pid ~incarnation:_ ->
          if pid < n then A.close_client cl ~pid else replica pid);
      harvest =
        (fun () ->
          (* [A.cluster] resets the transport's counters per run *)
          let inj, abs_ = Net.Transport.Sim.fault_counts () in
          injected := !injected + inj;
          absorbed := !absorbed + abs_;
          check_history hist ~init);
    }
  in
  let inject =
    net_nemesis_of net_nemesis ~rate:net_rate
      ~nodes:(List.init (n + replicas) Fun.id) ~victim:(Some n)
  in
  let report () =
    {
      print =
        (fun () ->
          Printf.printf "worst collects per scan: %d\n" !worst_collects;
          Printf.printf "net effects: %d injected, %d absorbed\n" !injected
            !absorbed;
          Printf.printf "unavailability: %d ops gave up\n" !unavailable);
      fields =
        [
          ("mem", str "net");
          ("net_mode", str (if mode = A.Weak then "weak" else "abd"));
          ("replicas", int replicas);
          ("net_nemesis", str net_nemesis);
          ("net_faults_injected", int !injected);
          ("net_faults_absorbed", int !absorbed);
          ( "mean_quorum_wait",
            Printf.sprintf "%.2f" (Metrics.Net.mean_quorum_wait ()) );
          ("unavailable_ops", int !unavailable);
        ];
      clean = linearizable;
      ok = no_extra;
    }
  in
  {
    (base ~pp_violation:Snapshot_spec.pp_violation w ~impl:S.name ~build
       ~report
       ~groups:Metrics.[ Net.group; Serving.group ]
       ~shape:
         (Printf.sprintf "%s over %s quorum registers, %d replicas%s" (shape w)
            (if mode = A.Weak then "WEAK (no write-back)" else "ABD")
            replicas (net_shape net_nemesis)))
    with
    inject;
    checked = check;
    expected = "weak reads skip the write-back";
  }

(* ---- online reconfiguration ----

   [updaters] writer clients each own one register and write 1..[updates]
   monotonically, HALTING on the first [Unavailable] (a writer that pushed
   past one could burn the same timestamp twice — equal tags carrying
   different values — which makes any monotonicity oracle unsound);
   [scanners] reader clients poll the writers' registers.  Three oracles:
   a writer's final read-back never runs below its last acked write (the
   naive-mode conviction); per (reader, register) observed values never
   step backwards; with [check], per register, a Wing–Gong check of the
   history with [Unavailable] operations left pending.

   RMW is excluded on purpose: at-most-once across a membership change
   would need the home replica's dedup entry to reach the collect quorum,
   which a reply lost before the transfer can defeat; the campaigns stick
   to reads and writes. *)

module Reg_spec = struct
  type state = int
  type op = Rwrite of int | Rread
  type res = Rack | Rval of int

  let apply s = function Rwrite v -> (v, Rack) | Rread -> (s, Rval s)
  let equal_res (a : res) (b : res) = a = b
end

module Reg_lin = Lin_check.Make (Reg_spec)

let reconfig ~mode ~replicas ~spares ~net_nemesis ~net_rate ~reconfig_nemesis
    ~replica_deaths w ~check =
  let module A = Net.Abd in
  let module R = Net.Reconfig in
  if replicas < 1 then usage "--replicas must be >= 1";
  if spares < 0 then usage "--spares must be >= 0";
  if w.updaters < 1 then usage "--reconfig needs at least one updater (writer)";
  let clients = w.updaters + w.scanners in
  let pool = replicas + spares in
  let nprocs = clients + pool + 1 (* + membership manager *) in
  let members = List.init replicas (fun i -> clients + i) in
  let lost_writes = ref 0 and inversions = ref 0 and lin_fails = ref 0 in
  let lin_skipped = ref 0 and unavailable = ref 0 and max_epoch = ref 0 in
  let injected = ref 0 and absorbed = ref 0 and reconfigs = ref 0 in
  let build _ =
    Sim.reset_prerun_oids ();
    let cl = A.cluster ~clients ~replicas ~spares ~with_manager:true () in
    let rc = R.attach ~mode cl in
    let regs =
      Array.init w.updaters (fun i ->
          A.Sim_mem.make ~name:(Printf.sprintf "reconfig.reg.%d" i) 0)
    in
    let hists =
      Array.init w.updaters (fun _ -> History.create ~now:Sim.mark ())
    in
    let last_acked = Array.make w.updaters 0 in
    let viols = ref [] in
    let violation counter fmt =
      incr counter;
      Printf.ksprintf (fun s -> viols := s :: !viols) fmt
    in
    let read pid reg =
      History.record hists.(reg) ~pid Reg_spec.Rread (fun () ->
          Reg_spec.Rval (A.Sim_mem.read regs.(reg)))
    in
    let writer pid () =
      (try
         for k = 1 to w.updates do
           ignore
             (History.record hists.(pid) ~pid (Reg_spec.Rwrite k) (fun () ->
                  A.Sim_mem.write regs.(pid) k;
                  Reg_spec.Rack));
           last_acked.(pid) <- k
         done
       with Net.Unavailable _ -> incr unavailable);
      match read pid pid with
      | Reg_spec.Rval v when v < last_acked.(pid) ->
        violation lost_writes
          "writer %d: read-back %d below last acked write %d (LOST WRITE)" pid v
          last_acked.(pid)
      | _ -> ()
      | exception Net.Unavailable _ -> incr unavailable
    in
    let reader pid () =
      let lastseen = Array.make w.updaters 0 in
      for j = 1 to w.scans do
        let reg = (pid + j) mod w.updaters in
        match read pid reg with
        | Reg_spec.Rval v when v < lastseen.(reg) ->
          violation inversions
            "reader %d: register %d went backwards %d -> %d (stale quorum)" pid
            reg lastseen.(reg) v
        | Reg_spec.Rval v -> lastseen.(reg) <- v
        | Reg_spec.Rack -> ()
        | exception Net.Unavailable _ -> incr unavailable
      done
    in
    (* Crashed clients restart only to close their session; crashed
       replicas resume from their durable store cell; a crashed manager
       re-drives any interrupted reconfiguration from its durable state. *)
    let server pid =
      if pid < clients + pool then A.replica_body cl ~index:(pid - clients)
      else R.manager_body rc
    in
    let harvest () =
      R.detach rc;
      let inj, abs_ = Net.Transport.Sim.fault_counts () in
      injected := !injected + inj;
      absorbed := !absorbed + abs_;
      reconfigs := !reconfigs + R.reconfig_count rc;
      for pid = 0 to clients - 1 do
        max_epoch := max !max_epoch (A.client_epoch cl ~pid)
      done;
      if check then
        Array.iteri
          (fun reg h ->
            match Reg_lin.check ~init:0 (History.entries h) with
            | true -> ()
            | false ->
              violation lin_fails "register %d: history not linearizable" reg
            | exception Reg_lin.Too_long n ->
              incr lin_skipped;
              Printf.printf "lin check skipped for register %d (%d entries)\n"
                reg n)
          hists;
      List.rev !viols
    in
    {
      procs =
        Array.init nprocs (fun pid ->
            if pid < w.updaters then A.wrap_client cl ~pid (writer pid)
            else if pid < clients then A.wrap_client cl ~pid (reader pid)
            else server pid);
      recover =
        (fun ~pid ~incarnation:_ ->
          if pid < clients then A.close_client cl ~pid else server pid);
      harvest;
    }
  in
  let net_inject =
    net_nemesis_of net_nemesis ~rate:net_rate ~nodes:(List.init nprocs Fun.id)
      ~victim:None
  in
  let reconfig_inject =
    match reconfig_nemesis with
    | "none" -> fun ~seed:_ s -> s
    | "replica_death" ->
      fun ~seed s ->
        Scheduler.replica_death ~seed ~victims:members ~rate:0.01
          ~max_deaths:replica_deaths s
    | "rolling_restart" ->
      fun ~seed:_ s ->
        Scheduler.rolling_restart ~victims:members ~start_at:60 ~gap:120
          ~down_for:80 s
    | "config_churn" ->
      fun ~seed s -> Scheduler.config_churn ~seed ~rate:0.004 ~max_reconfigs:2 s
    | "split_brain" ->
      (* Writer 0's link to the last initial member is cut for the whole
         run (that member's copy of each of writer 0's writes hangs in
         flight), one churned rotation swaps the first member for a spare,
         and the other initial members — a majority — die permanently.
         Unfenced, the old quorum keeps committing writer 0's writes after
         the rotation's state transfer; readers chased onto the new
         configuration meet the transfer snapshot plus the cut member's
         pre-cut state, both predating those commits — the lost write.
         Fenced, the same schedule seals the old epoch first, so writer 0
         either commits under the new epoch or goes Unavailable. *)
      let majority = (replicas / 2) + 1 in
      let victims = List.filteri (fun i _ -> i < majority) members in
      let survivor = clients + replicas - 1 in
      fun ~seed s ->
        Scheduler.config_churn ~seed ~rate:0.01 ~max_reconfigs:1
          (Scheduler.replica_death ~seed:(seed + 1) ~victims ~rate:0.0005
             ~max_deaths:majority
             (Scheduler.heal_after ~victim:0 ~peers:[ survivor ] ~at_clock:40
                ~after:1_000_000 s))
    | s ->
      usage
        "unknown --reconfig-nemesis %S (choose from: none, replica_death, \
         rolling_restart, config_churn, split_brain)"
        s
  in
  let report () =
    {
      print =
        (fun () ->
          Printf.printf "net effects: %d injected, %d absorbed\n" !injected
            !absorbed;
          Printf.printf
            "reconfigurations: %d completed; highest epoch adopted by a \
             client: %d\n"
            !reconfigs !max_epoch;
          Printf.printf "unavailability: %d ops gave up\n" !unavailable);
      fields =
        [
          ("mem", str "net");
          ("reconfig", str (if mode = R.Naive then "naive" else "fenced"));
          ("replicas", int replicas);
          ("spares", int spares);
          ("net_nemesis", str net_nemesis);
          ("reconfig_nemesis", str reconfig_nemesis);
          ("lost_writes", int !lost_writes);
          ("inversions", int !inversions);
          ("lin_violations", int !lin_fails);
          ("lin_skipped", int !lin_skipped);
          ("max_epoch", int !max_epoch);
          ("net_faults_injected", int !injected);
          ("net_faults_absorbed", int !absorbed);
          ("unavailable_ops", int !unavailable);
        ];
      clean =
        (fun t ->
          Printf.sprintf
            "all %d executions safe across reconfiguration (lost-write + \
             monotonicity%s)"
            t.runs
            (if check then " + per-register linearizability" else ""));
      ok = no_extra;
    }
  in
  {
    (base ~pp_violation:Fmt.string w ~build ~report
       ~groups:Metrics.[ Reconfig.group; Net.group; Serving.group ]
       ~impl:(if mode = R.Naive then "reconfig-naive" else "reconfig-fenced")
       ~shape:
         (Printf.sprintf
            "%d writers x %d, %d readers x %d over ABD quorum registers, %d \
             replicas + %d spares%s%s"
            w.updaters w.updates w.scanners w.scans replicas spares
            (net_shape net_nemesis)
            (if reconfig_nemesis = "none" then ""
             else ", reconfig-nemesis " ^ reconfig_nemesis)))
    with
    inject = (fun ~seed s -> reconfig_inject ~seed (net_inject ~seed s));
    expected = "the naive mode swaps membership without the epoch fence";
  }
