(* Tests of the message-passing backend (lib/net): ABD quorum registers
   over the simulated transport.  Covers duplicate-delivery idempotence
   of the phase messages (a dup-flooded run stays atomic), partition-heal
   convergence (a replica cut for a long window catches up from the held
   messages and never serves a stale regression), bounded unavailability
   (a client cut off from every replica gets [Unavailable], not a
   livelock, and trips its circuit breaker), replay determinism (the same
   decision schedule reproduces the identical trace, network faults
   included), and the committed E19 witness schedule, which must drive
   the write-back-free weak read mode to a new/old inversion while the
   sound ABD mode survives the very same schedule. *)

open Psnap
open Psnap_harness
module A = Psnap.Net.Abd
module T = Psnap.Net.Transport
module NSnap = On_net_sim.Nonblocking
module NM = A.Sim_mem

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- direct register workloads ---- *)

(* One writer bumping a register, one reader polling it: any linearizable
   single-writer register must show the reader a non-decreasing sequence. *)
let monotone_workload ?(mode = A.Abd) ?(writes = 10) ?(reads = 20)
    ?(record_trace = false) ?(with_recover = false) ~replicas ~sched () =
  Metrics.(reset Net.group);
  Sim.reset_prerun_oids ();
  let cl = A.cluster ~mode ~clients:2 ~replicas () in
  let r = NM.make ~name:"x" 0 in
  let observed = ref [] in
  let gave_up = ref 0 in
  let attempt f = try f () with Psnap.Net.Unavailable _ -> incr gave_up in
  let writer () =
    for k = 1 to writes do
      attempt (fun () -> NM.write r k)
    done
  in
  let reader () =
    for _ = 1 to reads do
      attempt (fun () -> observed := NM.read r :: !observed)
    done
  in
  let procs =
    [|
      A.wrap_client cl ~pid:0 writer;
      A.wrap_client cl ~pid:1 reader;
      A.replica_body cl ~index:0;
      A.replica_body cl ~index:1;
      (if replicas > 2 then A.replica_body cl ~index:2 else fun () -> ());
    |]
  in
  let procs = Array.sub procs 0 (2 + replicas) in
  let recover =
    if with_recover then
      Some
        (fun ~pid ~incarnation:_ ->
          if pid < 2 then A.close_client cl ~pid
          else A.replica_body cl ~index:(pid - 2))
    else None
  in
  let res = Sim.run ~record_trace ?recover ~sched procs in
  (res, List.rev !observed, !gave_up)

let is_monotone vs =
  let rec go = function
    | a :: (b :: _ as rest) -> a <= b && go rest
    | _ -> true
  in
  go vs

let all_nodes ~clients ~replicas = List.init (clients + replicas) Fun.id

let test_dup_flood_idempotent () =
  (* Duplicated phase messages must be absorbed by the tag comparison on
     Put and the per-request reply filtering on Get: reads stay atomic. *)
  let hit = ref false in
  for seed = 0 to 9 do
    let sched =
      Scheduler.dup_flood ~seed ~inflight:T.Sim.inflight_links ~rate:0.3
        (Scheduler.random ~seed ())
    in
    let _, observed, gave_up =
      monotone_workload ~replicas:3 ~sched ()
    in
    check_int "no faults beyond duplication: nothing gives up" 0 gave_up;
    check_bool "reads monotone under duplicate delivery" true
      (is_monotone observed);
    if Metrics.(get Net.net_dups) > 0 then begin
      hit := true;
      check_bool "duplicates really delivered" true
        Metrics.(get Net.delivers > get Net.sends - get Net.net_drops)
    end
  done;
  check_bool "campaign injected duplicates" true !hit

let test_partition_heal_convergence () =
  (* Replica 2 is unreachable for a long window: writes land on the
     remaining majority, the held messages drain at heal, and no read —
     before, during, or after — may regress.  The write-back repairs any
     quorum that includes the caught-up replica. *)
  let clients = 2 and replicas = 3 in
  let victim = clients + 2 in
  for seed = 0 to 9 do
    let sched =
      Scheduler.heal_after ~victim
        ~peers:(all_nodes ~clients ~replicas)
        ~at_clock:40 ~after:400
        (Scheduler.random ~seed ())
    in
    let _, observed, gave_up =
      monotone_workload ~writes:10 ~reads:30 ~replicas ~sched ()
    in
    check_int "majority stays reachable: nothing gives up" 0 gave_up;
    check_bool "reads monotone across cut and heal" true
      (is_monotone observed);
    check_bool "the window actually cut links" true
      (Metrics.(get Net.net_cuts) > 0);
    check_bool "and healed them" true (Metrics.(get Net.net_heals) > 0)
  done

let test_quorum_loss_unavailable_not_hang () =
  (* Client 0 is cut off from everyone before its first operation: every
     phase must exhaust its bounded attempts and surface [Unavailable]
    (the run terminating at all is the no-livelock claim), and the
     repeated failures must trip the client's circuit breaker. *)
  List.iter Metrics.reset Metrics.[ Net.group; Serving.group ];
  Sim.reset_prerun_oids ();
  let clients = 1 and replicas = 3 in
  let cl = A.cluster ~clients ~replicas () in
  let r = NM.make ~name:"x" 0 in
  let gave_up = ref 0 in
  let body () =
    for k = 1 to 3 do
      try NM.write r k
      with Psnap.Net.Unavailable _ -> incr gave_up
    done
  in
  let sched =
    Scheduler.heal_after ~victim:0
      ~peers:(all_nodes ~clients ~replicas)
      ~at_clock:1 ~after:10_000_000
      (Scheduler.round_robin ())
  in
  let procs =
    [|
      A.wrap_client cl ~pid:0 body;
      A.replica_body cl ~index:0;
      A.replica_body cl ~index:1;
      A.replica_body cl ~index:2;
    |]
  in
  let _ = Sim.run ~sched procs in
  check_int "all three writes gave up" 3 !gave_up;
  check_bool "unavailability counted" true
    (Metrics.(get Net.unavailable) >= 3);
  check_bool "breaker opened" true (Metrics.(get Serving.breaker_opens) >= 1)

let trace_signature (res : Sim.result) =
  List.map
    (function
      | Event.Step { pid; op; clock; _ } -> (pid, op, clock)
      | Event.Crash { pid; clock } -> (pid, Event.Read, -clock)
      | Event.Restart { pid; clock; _ } -> (pid, Event.Write, -clock)
      | Event.Mem_fault { oid; clock; _ } -> (oid, Event.Cas, -clock)
      | Event.Power_loss { clock } -> (-1, Event.Faa, -clock)
      | Event.Net_fault { src; dst; clock; _ } ->
        (src + dst, Event.Faa, -clock)
      | Event.Reconfig { clock } -> (-2, Event.Faa, -clock))
    res.Sim.trace

let test_replay_deterministic () =
  (* Record a partition-stormed run, replay its decision schedule: the
     trace — fault injections included — must be identical. *)
  let stormy seed =
    Scheduler.partition_storm ~seed
      ~nodes:(all_nodes ~clients:2 ~replicas:3)
      ~rate:0.05 ~heal_after:300
      (Scheduler.random ~seed ())
  in
  let record =
    let sched = stormy 7 in
    let res, _, _ =
      monotone_workload ~record_trace:true ~replicas:3 ~sched ()
    in
    res
  in
  let decisions = Trace.schedule record.Sim.trace in
  check_bool "schedule non-empty" true (decisions <> []);
  let replayed =
    let sched =
      Scheduler.replay_decisions ~lenient:true
        ~fallback:(Scheduler.round_robin ()) decisions
    in
    let res, _, _ =
      monotone_workload ~record_trace:true ~replicas:3 ~sched ()
    in
    res
  in
  check_bool "identical trace on replay" true
    (trace_signature record = trace_signature replayed)

let test_power_loss_replay_deterministic () =
  (* A blackout against the net backend: every client and replica halts
     in the same decision, replicas reboot from their durable store cells
     (each store write is a completed synchronous step — no un-synced
     tail to drop), clients restart only to close their sessions.  The
     recorded schedule must carry the [powerloss] decision and replay to
     the identical trace, and reads must stay monotone across the
     blackout (a store cell may never regress). *)
  let blackout seed =
    Scheduler.power_loss_at ~at_clock:150
      (Scheduler.partition_storm ~seed
         ~nodes:(all_nodes ~clients:2 ~replicas:3)
         ~rate:0.05 ~heal_after:300
         (Scheduler.random ~seed ()))
  in
  let record =
    let res, observed, _ =
      monotone_workload ~record_trace:true ~with_recover:true ~replicas:3
        ~sched:(blackout 3) ()
    in
    check_bool "reads monotone across the blackout" true
      (is_monotone observed);
    res
  in
  check_bool "the blackout fired" true
    (List.exists
       (function Event.Power_loss _ -> true | _ -> false)
       record.Sim.trace);
  check_bool "the blackout halted the machine" true
    (record.Sim.crashed <> []);
  let decisions = Trace.schedule record.Sim.trace in
  check_bool "schedule carries the powerloss decision" true
    (List.exists (fun d -> d = Scheduler.Power_loss) decisions);
  let replayed =
    let res, observed, _ =
      monotone_workload ~record_trace:true ~with_recover:true ~replicas:3
        ~sched:
          (Scheduler.replay_decisions ~lenient:true
             ~fallback:(Scheduler.round_robin ()) decisions)
        ()
    in
    check_bool "replayed reads monotone" true (is_monotone observed);
    res
  in
  check_bool "identical trace on power-loss replay" true
    (trace_signature record = trace_signature replayed)

(* ---- linearizability of pending-op histories under partition storms ---- *)

module Reg_spec = struct
  type state = int
  type op = Rwrite of int | Rread
  type res = Rack | Rval of int

  let apply s = function
    | Rwrite v -> (v, Rack)
    | Rread -> (s, Rval s)

  let equal_res (a : res) (b : res) = a = b
end

module RL = Lin_check.Make (Reg_spec)

let test_lincheck_under_partition_storm () =
  (* A partition storm makes some operations give up as [Unavailable]
     mid-phase: their history entries stay pending, and the Wing–Gong
     checker must still accept the history — a cut write either reached a
     quorum before the client gave up (a later read may see it) or it did
     not.  The storm campaign must actually strand operations, otherwise
     the pending-op path of the checker was never exercised. *)
  let clients = 2 and replicas = 3 in
  let pending_total = ref 0 in
  let cut_total = ref 0 in
  for seed = 0 to 9 do
    Metrics.(reset Net.group);
    Sim.reset_prerun_oids ();
    let sched =
      Scheduler.partition_storm ~seed
        ~nodes:(all_nodes ~clients ~replicas)
        ~rate:0.08 ~heal_after:2500
        (Scheduler.random ~seed ())
    in
    let cl = A.cluster ~clients ~replicas () in
    let r = NM.make ~name:"sx" 0 in
    let hist = History.create ~now:Sim.mark () in
    let attempt f = try f () with Psnap.Net.Unavailable _ -> () in
    let writer () =
      for k = 1 to 10 do
        attempt (fun () ->
            ignore
              (History.record hist ~pid:0 (Reg_spec.Rwrite k) (fun () ->
                   NM.write r k;
                   Reg_spec.Rack)))
      done
    in
    let reader () =
      for _ = 1 to 20 do
        attempt (fun () ->
            ignore
              (History.record hist ~pid:1 Reg_spec.Rread (fun () ->
                   Reg_spec.Rval (NM.read r))))
      done
    in
    let procs =
      Array.init (clients + replicas) (fun pid ->
          if pid = 0 then A.wrap_client cl ~pid writer
          else if pid = 1 then A.wrap_client cl ~pid reader
          else A.replica_body cl ~index:(pid - clients))
    in
    let _ = Sim.run ~sched procs in
    let entries = History.entries hist in
    pending_total :=
      !pending_total
      + List.length (List.filter History.is_pending entries);
    cut_total := !cut_total + Metrics.(get Net.net_cuts);
    check_bool
      (Printf.sprintf "seed %d: stormed ABD history linearizable" seed)
      true
      (RL.check ~init:0 entries)
  done;
  check_bool "the storm really cut links" true (!cut_total > 0);
  check_bool "some operations were stranded pending" true (!pending_total > 0)

(* ---- the committed E19 witness ---- *)

let e19_witness =
  if Sys.file_exists "schedules/e19-abd-weak.sched" then
    "schedules/e19-abd-weak.sched"
  else "../schedules/e19-abd-weak.sched"

(* The quorum-backend campaign's scenario at the witness's parameters:
   nonblocking snapshot, 3 updaters x 12 updates, 3 scanners x 8 scans,
   m = 4, r = 4, 3 replicas. *)
let replay_witness ~mode =
  let decisions = Shrink.load e19_witness in
  check_bool "witness committed and shrunk" true
    (decisions <> [] && List.length decisions <= 600);
  let sc =
    Scenario.net (module NSnap) ~mode ~replicas:3 ~net_nemesis:"none"
      ~net_rate:0.
      { Scenario.m = 4; r = 4; updaters = 3; updates = 12; scanners = 3;
        scans = 8 }
      ~check:true
  in
  let sched = Campaign.replay_sched decisions in
  (Campaign.execute sc ~sched).Campaign.violations

let test_e19_witness_kills_weak_mode () =
  let viols = replay_witness ~mode:A.Weak in
  check_bool "weak reads produce a new/old inversion" true (viols <> [])

let test_e19_witness_clean_on_abd () =
  let viols = replay_witness ~mode:A.Abd in
  check_bool "the write-back survives the same schedule" true (viols = [])

let () =
  Alcotest.run "net"
    [
      ( "abd",
        [
          Alcotest.test_case "dup-flood idempotent (10 seeds)" `Quick
            test_dup_flood_idempotent;
          Alcotest.test_case "partition-heal convergence (10 seeds)" `Quick
            test_partition_heal_convergence;
          Alcotest.test_case "quorum loss: Unavailable, not a hang" `Quick
            test_quorum_loss_unavailable_not_hang;
          Alcotest.test_case "replay deterministic" `Quick
            test_replay_deterministic;
          Alcotest.test_case "lin check under partition storm (10 seeds)"
            `Quick test_lincheck_under_partition_storm;
          Alcotest.test_case "power-loss replay deterministic" `Quick
            test_power_loss_replay_deterministic;
        ] );
      ( "e19",
        [
          Alcotest.test_case "witness kills weak mode" `Quick
            test_e19_witness_kills_weak_mode;
          Alcotest.test_case "witness clean on abd" `Quick
            test_e19_witness_clean_on_abd;
        ] );
    ]
