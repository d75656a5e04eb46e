(* Interactive workload driver: run any implementation under any scheduler
   with exact step accounting, crash–restart fault injection, history
   validation, and counterexample shrinking, straight from the command line.

     dune exec bin/simulate.exe -- --impl fig3 -m 64 -r 8 \
         --updaters 4 --scanners 2 --sched starve --seeds 20 --check

     # fault-injection campaign with minimization of any failure found:
     dune exec bin/simulate.exe -- --nemesis chaos --seeds 50 --check \
         --shrink --replay-file failing.sched

     # replay a saved (possibly shrunk) schedule:
     dune exec bin/simulate.exe -- --replay-file failing.sched --check

   The flags pick one scenario of lib/harness/scenario.ml — a flat snapshot
   implementation, the resilient front, the durable store, transactions,
   the quorum backend or reconfiguration — and the campaign loop of
   lib/harness/campaign.ml runs it: per-operation step statistics, fault
   counts, the oracle's verdict, and --json for a machine-readable
   summary. *)

open Psnap
open Psnap_harness

let impls : (string * (module Snapshot.S)) list =
  On_sim.snapshots
  @ [
      ("fig1-hardened", (module On_replicated.Fig1));
      ("fig3-hardened", (module On_replicated.Fig3));
      ("fig3-selfcheck", (module On_selfcheck.Fig3));
    ]

(* --mem net: one row per construction (Figure 3, Figure 1, the full
   snapshot, the helping-free baseline); every base-object access is a
   quorum operation of many simulator steps, so the variants would add run
   time, not coverage. *)
let net_impls =
  select [ "fig3"; "fig1"; "afek"; "nonblocking" ] On_net_sim.snapshots

let impl_names =
  List.map fst impls
  @ [ "sharded"; "sharded-relaxed"; "resilient"; "durable"; "txn" ]

let usage fmt = Printf.ksprintf (fun s -> raise (Scenario.Usage s)) fmt

let one_of what names = function
  | Some x -> x
  | None -> usage "unknown %s (choose from: %s)" what (String.concat ", " names)

(* sharded implementations take their geometry from --shards, so they are
   built at runtime rather than listed statically *)
let impl_of ~shards name : (module Snapshot.S) =
  match name with
  | "sharded" | "sharded-relaxed" ->
    (module Runtime.Sharded.Make (Mem.Sim) (Sim_fig3)
              (struct
                let shards = shards
                let partition = `Round_robin
                let mode = if name = "sharded" then `Validated else `Relaxed
              end))
  | _ ->
    one_of ("implementation " ^ name) impl_names (List.assoc_opt name impls)

(* "corrupt", "lose,stale", "all" -> fault kinds; "none" -> no memory faults *)
let mem_kinds_of = function
  | "" | "none" -> None
  | "all" -> Some Event.all_fault_kinds
  | s ->
    Some
      (List.map
         (fun tok ->
           one_of ("fault kind " ^ tok)
             [ "lose"; "stale"; "corrupt"; "stick"; "all" ]
             (Event.fault_kind_of_string (String.trim tok)))
         (String.split_on_char ',' s))

let power_of = function
  | "none" -> Scenario.No_power_loss
  | "storm" -> Power_storm
  | "sweep" -> Power_sweep
  | s -> (
    match int_of_string_opt s with
    | Some c when c >= 0 -> Power_at c
    | _ ->
      usage
        "unknown --power-loss %S (choose from: none, storm, sweep, or a \
         clock value)"
        s)

let run impl_name shards m r updaters updates scanners scans sched seed_base
    seeds check crash_at nemesis mem_faults_arg mem_rate mem_max
    expect_violations shrink replay_file json_file stick_epoch stall_shard
    slow_pid power_loss_arg checkpoint_every wal_mode mem_backend replicas
    net_nemesis net_mode net_rate txn_mode reconfig_mode spares
    reconfig_nemesis replica_deaths =
  let w = { Scenario.m; r; updaters; updates; scanners; scans } in
  try
    let power = power_of power_loss_arg in
    let cfg =
      {
        Campaign.sched;
        nemesis;
        mem_faults =
          Option.map
            (fun kinds -> { Campaign.kinds; rate = mem_rate; max = mem_max })
            (mem_kinds_of mem_faults_arg);
        crash_at;
        power;
        seed_base;
        seeds;
        expect_violations;
        shrink;
        replay_file;
        json_file;
      }
    in
    let go sc = Campaign.run cfg sc in
    match (reconfig_mode, mem_backend, impl_name) with
    | "off", "net", ("resilient" | "durable" | "sharded" | "sharded-relaxed")
    | "off", "net", "txn" ->
      usage "--mem net does not support --impl %s" impl_name
    | "off", "net", _ ->
      let mode =
        one_of ("--net-mode " ^ net_mode) [ "abd"; "weak" ]
          (List.assoc_opt net_mode
             [ ("abd", Net.Abd.Abd); ("weak", Net.Abd.Weak) ])
      in
      let impl =
        one_of ("--mem net implementation " ^ impl_name)
          (List.map fst net_impls)
          (List.assoc_opt impl_name net_impls)
      in
      go (Scenario.net impl ~mode ~replicas ~net_nemesis ~net_rate w ~check)
    | "off", "sim", "resilient" ->
      go (Scenario.resilient ~shards ~stick_epoch ~stall_shard ~slow_pid w)
    | "off", "sim", "durable" ->
      let write_ahead =
        one_of ("--wal-mode " ^ wal_mode) [ "write-ahead"; "late-log" ]
          (List.assoc_opt wal_mode
             [ ("write-ahead", true); ("late-log", false) ])
      in
      go
        (Scenario.durable
           ~config:{ Sim_durable_fig3.checkpoint_every; write_ahead }
           ~power w)
    | "off", "sim", "txn" ->
      let mode =
        one_of ("--txn-mode " ^ txn_mode) [ "fcw"; "lww" ]
          (Txn.mode_of_string txn_mode)
      in
      go (Scenario.txn ~mode w)
    | "off", "sim", _ -> go (Scenario.flat (impl_of ~shards impl_name) w ~check)
    | "off", _, _ ->
      usage "unknown --mem %S (choose from: sim, net)" mem_backend
    | _ ->
      (* the reconfiguration campaign is its own workload over the net
         backend; --impl and --mem are ignored *)
      let mode =
        one_of ("--reconfig " ^ reconfig_mode) [ "off"; "fenced"; "naive" ]
          (List.assoc_opt reconfig_mode
             [ ("fenced", Net.Reconfig.Fenced); ("naive", Net.Reconfig.Naive) ])
      in
      go
        (Scenario.reconfig ~mode ~replicas ~spares ~net_nemesis ~net_rate
           ~reconfig_nemesis ~replica_deaths w ~check)
  with Scenario.Usage msg ->
    prerr_endline msg;
    2

open Cmdliner

let impl =
  Arg.(
    value & opt string "fig3"
    & info [ "impl" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Implementation: %s."
             (String.concat ", " impl_names)))

let shards =
  Arg.(
    value & opt int 4
    & info [ "shards" ] ~docv:"S"
        ~doc:
          "Shard count for the sharded implementations (fig3 instances \
           behind round-robin placement).")

let m = Arg.(value & opt int 64 & info [ "m" ] ~doc:"Vector size.")

let r = Arg.(value & opt int 8 & info [ "r" ] ~doc:"Components per scan.")

let updaters = Arg.(value & opt int 3 & info [ "updaters" ] ~doc:"Updater processes.")

let updates = Arg.(value & opt int 30 & info [ "updates" ] ~doc:"Updates per updater.")

let scanners = Arg.(value & opt int 2 & info [ "scanners" ] ~doc:"Scanner processes.")

let scans = Arg.(value & opt int 8 & info [ "scans" ] ~doc:"Scans per scanner.")

let sched =
  Arg.(
    value & opt string "random"
    & info [ "sched" ]
        ~doc:
          (Printf.sprintf "Scheduler: %s."
             (String.concat ", " Campaign.scheds)))

let seed_base =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N"
        ~doc:"Base seed; execution $(i,k) uses seed N+k.")

let seeds = Arg.(value & opt int 10 & info [ "seeds" ] ~doc:"Seeded executions.")

let check =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Validate histories (observation checker).  The resilient, \
           durable and txn campaigns always check; under $(b,--reconfig) \
           this adds the per-register linearizability check.")

let crash_at =
  Arg.(
    value
    & opt (some int) None
    & info [ "crash-at" ] ~docv:"CLOCK"
        ~doc:"Crash process 0 at this step (permanent halting failure).")

let nemesis =
  Arg.(
    value & opt string "none"
    & info [ "nemesis" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf
             "Fault injector layered over the scheduler: %s.  Crashed \
              processes restart on a recovery body that rebuilds local \
              state from scratch."
             (String.concat ", " Campaign.nemeses)))

let mem_faults_arg =
  Arg.(
    value & opt string "none"
    & info [ "mem-faults" ] ~docv:"KINDS"
        ~doc:
          "Memory-fault storm over the base scheduler: comma-separated \
           fault kinds from lose (silently dropped writes), stale \
           (superseded values served once), corrupt (stored value garbled), \
           stick (cell stops accepting writes); or $(b,all).  Composable \
           with $(b,--nemesis) and $(b,--shrink).")

let mem_rate =
  Arg.(
    value & opt float 0.02
    & info [ "mem-rate" ] ~docv:"P"
        ~doc:"Per-decision-point injection probability for --mem-faults.")

let mem_max =
  Arg.(
    value & opt int 8
    & info [ "mem-max" ] ~docv:"N"
        ~doc:"Maximum memory faults injected per run.")

let expect_violations =
  Arg.(
    value & flag
    & info [ "expect-violations" ]
        ~doc:
          "Invert the oracle's verdict: succeed only if at least one \
           violation occurred (used to demonstrate that the unsound modes \
           and raw registers under memory faults break).")

let shrink =
  Arg.(
    value & flag
    & info [ "shrink" ]
        ~doc:
          "On a checker violation, delta-debug the recorded schedule to a \
           minimal failing decision list and print it (saved to \
           $(b,--replay-file) if given).")

let replay_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay-file" ] ~docv:"FILE"
        ~doc:
          "Without $(b,--shrink): replay the schedule stored in FILE \
           instead of running seeded executions.  With $(b,--shrink): \
           write the minimal failing schedule to FILE.")

let json_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write a machine-readable campaign summary to FILE.")

let stick_epoch =
  Arg.(
    value
    & opt (some int) None
    & info [ "stick-epoch" ] ~docv:"SHARD"
        ~doc:
          "($(b,--impl resilient) only) Stick shard SHARD's epoch cell at \
           its first access: updates keep drawing duplicate epochs until \
           the stuck-epoch detector triggers a shard rebuild.  The \
           campaign then requires at least one completed rebuild and a \
           fully-validated scan of the rebuilt shard.")

let stall_shard =
  Arg.(
    value
    & opt (some int) None
    & info [ "stall-shard" ] ~docv:"SHARD"
        ~doc:
          "($(b,--impl resilient) only) Latency nemesis: withhold every \
           access to shard SHARD's cells during clock window [50, 450], \
           running other processes instead.")

let slow_pid =
  Arg.(
    value
    & opt (some int) None
    & info [ "slow-pid" ] ~docv:"PID"
        ~doc:
          "($(b,--impl resilient) only) Latency nemesis: let PID take only \
           every 8th of its scheduled steps (a slow domain).")

let power_loss_arg =
  Arg.(
    value & opt string "none"
    & info [ "power-loss" ] ~docv:"MODE"
        ~doc:
          "($(b,--impl durable) only) Power-loss fault injection: \
           $(b,none); a clock value (one blackout at that step: every \
           device drops its un-synced write cache except a torn fragment, \
           every process crashes and restarts on a recovery body); \
           $(b,storm) (seeded random blackouts); $(b,sweep) (per seed, one \
           baseline run plus one run with a blackout at every schedule \
           point — the exhaustive recovery campaign).")

let checkpoint_every =
  Arg.(
    value & opt int 0
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "($(b,--impl durable) only) Seal a checkpoint every N commits \
           (0 = log-only, never checkpoint).")

let wal_mode =
  Arg.(
    value & opt string "write-ahead"
    & info [ "wal-mode" ] ~docv:"MODE"
        ~doc:
          "($(b,--impl durable) only) $(b,write-ahead) (sound: append + \
           sync before the update is applied or acknowledged) or \
           $(b,late-log) (deliberately unsound: apply first, log after — \
           exists to show the power-loss campaign catches \
           committed-then-lost bugs; pair with $(b,--expect-violations)).")

let mem_backend =
  Arg.(
    value & opt string "sim"
    & info [ "mem" ] ~docv:"BACKEND"
        ~doc:
          "Memory backend: $(b,sim) (the step-counting shared memory) or \
           $(b,net) (ABD quorum registers replicated across \
           $(b,--replicas) crash-prone replica processes over the \
           simulated message transport — docs/MODEL.md section 14).")

let replicas =
  Arg.(
    value & opt int 3
    & info [ "replicas" ] ~docv:"N"
        ~doc:"($(b,--mem net) only) Replica processes backing each register.")

let net_nemesis =
  Arg.(
    value & opt string "none"
    & info [ "net-nemesis" ] ~docv:"NAME"
        ~doc:
          "($(b,--mem net) only) Network fault injector layered over the \
           scheduler: $(b,none), $(b,partition_storm) (seeded symmetric \
           partitions that heal), $(b,heal_after) (one deterministic \
           quorum-loss window against replica 0), $(b,dup_flood) \
           (duplicate deliveries), $(b,lag_spike) (reordering bursts).  \
           Composable with $(b,--nemesis) and $(b,--shrink).")

let net_mode =
  Arg.(
    value & opt string "abd"
    & info [ "net-mode" ] ~docv:"MODE"
        ~doc:
          "($(b,--mem net) only) $(b,abd) (sound: reads write back the \
           maximal value before returning) or $(b,weak) (deliberately \
           unsound fast reads without write-back — exhibits new/old \
           inversion under partitions; pair with \
           $(b,--expect-violations)).")

let net_rate =
  Arg.(
    value & opt float 0.02
    & info [ "net-rate" ] ~docv:"P"
        ~doc:"Per-decision-point injection probability for --net-nemesis.")

let reconfig_mode =
  Arg.(
    value & opt string "off"
    & info [ "reconfig" ] ~docv:"MODE"
        ~doc:
          "Online-reconfiguration campaign over the net backend \
           (docs/MODEL.md section 16): $(b,off), $(b,fenced) (sound: seal \
           the old configuration, state-transfer under the new epoch, \
           epoch-fence stale requests) or $(b,naive) (deliberately \
           unsound: membership swaps without the fence — a write \
           concurrent with the transfer can be lost; pair with \
           $(b,--expect-violations)).  Writers are $(b,--updaters) x \
           $(b,--updates), readers $(b,--scanners) x $(b,--scans).")

let spares =
  Arg.(
    value & opt int 2
    & info [ "spares" ] ~docv:"N"
        ~doc:
          "($(b,--reconfig) only) Spare pool replicas available for \
           promotion by replacement and rotation configurations.")

let reconfig_nemesis =
  Arg.(
    value & opt string "none"
    & info [ "reconfig-nemesis" ] ~docv:"NAME"
        ~doc:
          "($(b,--reconfig) only) Membership fault injector: $(b,none), \
           $(b,replica_death) (seeded permanent crashes of initial \
           members, capped by $(b,--replica-death)), \
           $(b,rolling_restart) (deterministic maintenance roll), \
           $(b,config_churn) (seeded Reconfig decisions — rotations \
           under load), $(b,split_brain) (one churned rotation plus \
           permanent death of a majority of the initial members — the \
           E21 recipe).  Composable with $(b,--nemesis), \
           $(b,--net-nemesis) and $(b,--shrink).")

let replica_death_max =
  Arg.(
    value & opt int 1
    & info [ "replica-death" ] ~docv:"N"
        ~doc:
          "Maximum permanent replica deaths injected by \
           $(b,--reconfig-nemesis replica_death).")

let txn_mode =
  Arg.(
    value & opt string "fcw"
    & info [ "txn-mode" ] ~docv:"MODE"
        ~doc:
          "($(b,--impl txn) only) $(b,fcw) (sound: first-committer-wins \
           write-write validation at commit) or $(b,lww) (deliberately \
           unsound last-writer-wins: commit skips validation — exists to \
           show the snapshot-isolation oracle catches lost updates; pair \
           with $(b,--expect-violations)).")


let cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"drive partial snapshot workloads in the simulator")
    Term.(
      const run $ impl $ shards $ m $ r $ updaters $ updates $ scanners
      $ scans $ sched $ seed_base $ seeds $ check $ crash_at $ nemesis
      $ mem_faults_arg $ mem_rate $ mem_max $ expect_violations $ shrink
      $ replay_file $ json_file $ stick_epoch $ stall_shard $ slow_pid
      $ power_loss_arg $ checkpoint_every $ wal_mode $ mem_backend $ replicas
      $ net_nemesis $ net_mode $ net_rate $ txn_mode $ reconfig_mode $ spares
      $ reconfig_nemesis $ replica_death_max)

let () = exit (Cmd.eval' cmd)
