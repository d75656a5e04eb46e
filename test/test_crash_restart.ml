(* Tests of the crash–restart fault model: incarnation semantics in the
   kernel, nemesis schedulers, linearizability of Figures 1–3 under chaos
   schedules with restarts, the Detectable exactly-once wrapper (and the
   double-apply bug of naive re-invocation it fixes), and ddmin schedule
   shrinking. *)

open Psnap
module M = Mem.Sim
module D = Psnap_apps.Detectable
module DSpec = D.Spec

(* Same discipline as the rest of the suite: every simulated access must
   happen at a scheduling point of the current run. *)
let () = M.set_strict true

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let rr () = Scheduler.round_robin ()

let forced decisions =
  Scheduler.replay_decisions ~fallback:(rr ()) decisions

(* ---- kernel: incarnation semantics ---- *)

let test_restart_respawns_on_recovery () =
  let r = M.make 0 in
  let observed = ref [] in
  let body () =
    M.write r 1;
    M.write r 2
  in
  let recover ~pid:_ ~incarnation () =
    (* Local state is gone; shared memory survives the crash. *)
    observed := (incarnation, M.read r) :: !observed;
    M.write r 10
  in
  let sched =
    forced [ Scheduler.Run 0; Scheduler.Crash 0; Scheduler.Restart 0 ]
  in
  let res = Sim.run ~record_trace:true ~recover ~sched [| body |] in
  check_bool "completed" true (res.outcome = Sim.Completed);
  Alcotest.(check (list (pair int int)))
    "recovery ran as incarnation 2 and saw the surviving write" [ (2, 1) ]
    !observed;
  Alcotest.(check (array int)) "incarnation count" [| 2 |] res.incarnations;
  Alcotest.(check (list int)) "kill recorded" [ 0 ] res.crashed;
  Alcotest.(check (list int)) "restart in trace" [ 0 ]
    (Trace.restarts res.trace);
  (* write1 + recovery's read + write = 3 executed steps; the pending
     write2 died with the crash *)
  check_int "steps across incarnations" 3 res.steps.(0)

let test_crashed_pid_never_restarted_is_legal () =
  (* Providing a recovery function does not oblige the scheduler to use
     it: a run where a crashed pid stays down forever must complete. *)
  let r = M.make 0 in
  let body () = M.write r 1 in
  let recover ~pid:_ ~incarnation:_ () = M.write r 99 in
  let sched = forced [ Scheduler.Crash 0 ] in
  let res = Sim.run ~recover ~sched [| body |] in
  check_bool "completed with pid down" true (res.outcome = Sim.Completed);
  Alcotest.(check (array int)) "no restart" [| 1 |] res.incarnations

let test_restart_without_recovery_rejected () =
  let r = M.make 0 in
  let k = ref 0 in
  let pick _ =
    incr k;
    if !k = 1 then Scheduler.Crash 0 else Scheduler.Restart 0
  in
  (* A second live process keeps the run going past the crash; without
     one the run would (legally) complete before the Restart is asked. *)
  Alcotest.check_raises "restart needs a recovery function"
    (Failure "Sim.run: restart without a recovery function") (fun () ->
      ignore
        (Sim.run
           ~sched:{ Scheduler.name = "bad"; pick }
           [| (fun () -> M.write r 1); (fun () -> M.write r 2) |]))

let test_restart_of_running_pid_rejected () =
  let r = M.make 0 in
  let recover ~pid:_ ~incarnation:_ () = () in
  Alcotest.check_raises "only crashed pids restart"
    (Failure "Sim.run: restart of a non-crashed process") (fun () ->
      ignore
        (Sim.run ~recover
           ~sched:{ Scheduler.name = "bad"; pick = (fun _ -> Scheduler.Restart 0) }
           [| (fun () -> M.write r 1) |]))

let test_fault_budget_bounds_crash_restart_loops () =
  (* Crash and Restart decisions do not advance the clock; an adversary
     looping on them forever must still hit the step budget (the audit
     fix: without the fault counter this run would never terminate). *)
  let r = M.make 0 in
  let body () = M.write r 1 in
  let recover ~pid:_ ~incarnation:_ () = M.write r 2 in
  let k = ref 0 in
  let pick _ =
    incr k;
    if !k mod 2 = 1 then Scheduler.Crash 0 else Scheduler.Restart 0
  in
  Alcotest.check_raises "fault loop exhausts budget" (Sim.Out_of_steps 0)
    (fun () ->
      ignore
        (Sim.run ~max_steps:50 ~recover
           ~sched:{ Scheduler.name = "fault-loop"; pick }
           [| body |]))

let test_multiple_incarnations () =
  let r = M.make 0 in
  let body () = M.write r 1 in
  let recover ~pid:_ ~incarnation:_ () = M.write r 2 in
  let sched =
    forced
      [
        Scheduler.Crash 0;
        Scheduler.Restart 0;
        Scheduler.Crash 0;
        Scheduler.Restart 0;
        Scheduler.Crash 0;
        Scheduler.Restart 0;
      ]
  in
  let res = Sim.run ~record_trace:true ~recover ~sched [| body |] in
  Alcotest.(check (array int)) "three restarts" [| 4 |] res.incarnations;
  Alcotest.(check (list int)) "every kill recorded" [ 0; 0; 0 ] res.crashed;
  check_int "restart events" 3 (List.length (Trace.restarts res.trace))

let trace_signature res =
  List.map
    (function
      | Event.Step { pid; op; clock; _ } -> (pid, op, clock)
      | Event.Crash { pid; clock } -> (pid, Event.Read, -clock)
      | Event.Restart { pid; clock; _ } -> (pid, Event.Write, -clock)
      | Event.Mem_fault { oid; clock; _ } -> (oid, Event.Cas, -clock)
      | Event.Power_loss { clock } -> (-1, Event.Faa, -clock)
      | Event.Net_fault { src; dst; clock; _ } -> (src + dst, Event.Faa, -clock)
      | Event.Reconfig { clock } -> (-2, Event.Faa, -clock))
    res.Sim.trace

let test_chaos_deterministic () =
  let program () =
    let r = M.make 0 in
    ( Array.init 3 (fun pid () ->
          for k = 1 to 8 do
            if k mod 2 = 0 then M.write r (pid + k) else ignore (M.read r)
          done),
      fun ~pid:_ ~incarnation:_ () ->
        for _ = 1 to 4 do
          ignore (M.read r)
        done )
  in
  let run seed =
    let procs, recover = program () in
    Sim.run ~record_trace:true ~recover
      ~sched:(Scheduler.chaos ~seed ~rate:0.2 ~max_restart_delay:6 ())
      procs
  in
  let a = run 3 and b = run 3 in
  check_bool "same seed, same execution" true
    (trace_signature a = trace_signature b);
  let c = run 4 in
  check_bool "different seed, different execution" true
    (trace_signature a <> trace_signature c)

(* ---- replay of decision lists ---- *)

let test_replay_decisions_strict_and_lenient () =
  let mk () =
    let r = M.make 0 in
    Array.init 2 (fun _ () -> ignore (M.read r))
  in
  (* strict: a decision for a non-runnable pid is an error *)
  (match
     Sim.run
       ~sched:(Scheduler.replay_decisions [ Scheduler.Crash 7 ])
       (mk ())
   with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  (* lenient: the same decision is skipped and the rest applies *)
  let res =
    Sim.run
      ~sched:
        (Scheduler.replay_decisions ~lenient:true ~fallback:(rr ())
           [ Scheduler.Crash 7; Scheduler.Run 1; Scheduler.Run 0 ])
      (mk ())
  in
  check_bool "lenient replay completes" true (res.outcome = Sim.Completed)

(* ---- shrink: ddmin over decision lists ---- *)

let test_ddmin_minimizes () =
  let schedule = List.init 64 (fun i -> i) in
  (* failure = the subsequence contains both 13 and 37 *)
  let oracle c = List.mem 13 c && List.mem 37 c in
  let minimal, calls = Shrink.minimize ~oracle schedule in
  Alcotest.(check (list int)) "exact minimum" [ 13; 37 ] minimal;
  check_bool "spent oracle calls" true (calls > 1)

let test_ddmin_rejects_passing_schedule () =
  match Shrink.minimize ~oracle:(fun _ -> false) [ 1; 2; 3 ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_ddmin_empty_schedule () =
  (* an empty failing schedule is already minimal *)
  let minimal, _calls = Shrink.minimize ~oracle:(fun _ -> true) [] in
  Alcotest.(check (list int)) "empty stays empty" [] minimal

let test_ddmin_already_minimal () =
  (* 1-minimal input: ddmin must return it unchanged (order preserved) *)
  let schedule = [ 5; 9; 2 ] in
  let oracle c = List.mem 5 c && List.mem 9 c && List.mem 2 c in
  let minimal, _calls = Shrink.minimize ~oracle schedule in
  Alcotest.(check (list int)) "unchanged" schedule minimal

let test_ddmin_needs_whole_schedule () =
  (* the oracle fails on every proper sub-list: nothing can be removed *)
  let schedule = List.init 9 (fun i -> i) in
  let oracle c = List.length c = 9 in
  let minimal, calls = Shrink.minimize ~oracle schedule in
  Alcotest.(check (list int)) "whole schedule survives" schedule minimal;
  check_bool "tried sub-lists before giving up" true (calls > 1)

let test_schedule_file_roundtrip () =
  let decisions =
    [
      Scheduler.Run 3;
      Scheduler.Crash 0;
      Scheduler.Restart 0;
      Scheduler.Run 0;
      Scheduler.Stop;
    ]
  in
  let path = Filename.temp_file "psnap" ".sched" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Shrink.save path decisions;
      Alcotest.(check bool)
        "roundtrip" true
        (Shrink.load path = decisions))

(* ---- Figures 1 and 3 stay linearizable under chaos with restarts ---- *)

(* Updaters write incarnation-tagged values (all globally unique), so the
   observation checker retains full precision; a restarted process rebuilds
   its handle — all local state — from scratch. *)
let snapshot_chaos_campaign (module S : Snapshot.S) ~seeds =
  let m = 8 and n = 3 in
  let init = Array.init m (fun i -> -(i + 1)) in
  let restarts = ref 0 in
  for seed = 0 to seeds - 1 do
    let hist = History.create ~now:Sim.mark () in
    let t = S.create ~n (Array.copy init) in
    let updater ~incarnation pid () =
      let h = S.handle t ~pid in
      for k = 1 to 6 do
        let i = (k + (pid * 3)) mod m in
        let v = (pid * 1_000_000) + (incarnation * 10_000) + k in
        ignore
          (History.record hist ~pid (Snapshot_spec.Update (i, v)) (fun () ->
               S.update h i v;
               Snapshot_spec.Ack))
      done
    in
    let scanner pid () =
      let h = S.handle t ~pid in
      let idxs = [| 0; 2; 5 |] in
      for _ = 1 to 4 do
        ignore
          (History.record hist ~pid (Snapshot_spec.Scan idxs) (fun () ->
               Snapshot_spec.Vals (S.scan h idxs)))
      done
    in
    let body ~incarnation pid =
      if pid < n - 1 then updater ~incarnation pid else scanner pid
    in
    let recover ~pid ~incarnation = body ~incarnation pid in
    let res =
      Sim.run ~recover
        ~sched:(Scheduler.chaos ~seed ~rate:0.08 ~max_restart_delay:12 ())
        (Array.init n (body ~incarnation:1))
    in
    restarts :=
      !restarts + Array.fold_left (fun a i -> a + (i - 1)) 0 res.incarnations;
    let viols = Snapshot_spec.check_observations ~init (History.entries hist) in
    if viols <> [] then
      Alcotest.failf "seed %d: %a" seed
        Fmt.(list ~sep:comma Snapshot_spec.pp_violation)
        (List.filteri (fun i _ -> i < 3) viols)
  done;
  check_bool "campaign injected restarts" true (!restarts > 0)

let test_fig1_linearizable_under_chaos () =
  snapshot_chaos_campaign (module On_sim.Fig1) ~seeds:25

let test_fig3_linearizable_under_chaos () =
  snapshot_chaos_campaign (module Sim_fig3) ~seeds:25

(* ---- Figure 2 (active set) under chaos with restarts ---- *)

let test_fig2_valid_under_chaos () =
  let module A = On_sim.Fai_cas in
  let module AC = Activeset_check in
  let n = 4 in
  let restarts = ref 0 in
  for seed = 0 to 19 do
    let hist = History.create ~now:Sim.mark () in
    let t = A.create ~n () in
    let member pid () =
      let h = A.handle t ~pid in
      for _ = 1 to 3 do
        ignore (History.record hist ~pid AC.Join (fun () -> A.join h; AC.Ack));
        ignore
          (History.record hist ~pid AC.Get_set (fun () ->
               AC.Set (A.get_set t)));
        ignore (History.record hist ~pid AC.Leave (fun () -> A.leave h; AC.Ack))
      done
    in
    let observer pid () =
      for _ = 1 to 4 do
        ignore
          (History.record hist ~pid AC.Get_set (fun () ->
               AC.Set (A.get_set t)))
      done
    in
    (* A crashed member is "transitioning forever" (its join/leave was cut,
       or it never left); its new incarnation must not re-join — the
       per-process alternation belongs to the dead incarnation — so
       recovery demotes it to a pure observer.  Its getSets must still be
       valid. *)
    let recover ~pid ~incarnation:_ = observer pid in
    let res =
      Sim.run ~recover
        ~sched:(Scheduler.chaos ~seed ~rate:0.08 ~max_restart_delay:12 ())
        (Array.init n (fun pid ->
             if pid < n - 1 then member pid else observer pid))
    in
    restarts :=
      !restarts + Array.fold_left (fun a i -> a + (i - 1)) 0 res.incarnations;
    match AC.check (History.entries hist) with
    | [] -> ()
    | v :: _ -> Alcotest.failf "seed %d: %a" seed AC.pp_violation v
  done;
  check_bool "campaign injected restarts" true (!restarts > 0)

(* ---- Detectable: exactly-once updates across incarnations ---- *)

module Det = D.Make (M) (Sim_fig3)

let test_detectable_skips_claimed_request () =
  let t = Det.create ~n:1 [| 0; 0 |] in
  let outcomes = ref [] in
  let body () =
    let h = Det.handle t ~pid:0 in
    outcomes := Det.update h ~seq:0 0 41 :: !outcomes;
    (* a re-submission of the same request is detected and refused *)
    outcomes := Det.update h ~seq:0 0 42 :: !outcomes;
    check_int "claim register remembers" 0 (Det.resume h);
    Alcotest.(check (array int)) "first submission won" [| 41 |]
      (Det.scan h [| 0 |])
  in
  ignore (Sim.run ~sched:(rr ()) [| body |]);
  check_bool "applied then skipped" true (!outcomes = [ `Skipped; `Applied ])

let test_detectable_resume_after_crash () =
  (* Crash p0 after its first update completed; the new incarnation learns
     from the claim register exactly which requests are settled.  A
     calibration run measures how many steps [handle + update seq 0] takes
     solo, so the crash lands exactly between the two updates. *)
  let s0 =
    let t = Det.create ~n:1 [| 0; 0 |] in
    let body () =
      let h = Det.handle t ~pid:0 in
      ignore (Det.update h ~seq:0 0 7)
    in
    (Sim.run ~sched:(rr ()) [| body |]).steps.(0)
  in
  let t = Det.create ~n:1 [| 0; 0 |] in
  let seen = ref None in
  let body () =
    let h = Det.handle t ~pid:0 in
    ignore (Det.update h ~seq:0 0 7);
    ignore (Det.update h ~seq:1 1 8)
  in
  let recover ~pid ~incarnation:_ () =
    let h = Det.handle t ~pid in
    seen := Some (Det.resume h, Det.status h ~seq:0, Det.status h ~seq:1)
  in
  (* Crash two steps past update seq 0: seq 1's claim is read and written
     but its apply has not started — the claim–apply window. *)
  let killed = ref false in
  let pick (v : Scheduler.view) =
    if Scheduler.is_restartable v 0 then Scheduler.Restart 0
    else if (not !killed) && v.Scheduler.steps_of 0 >= s0 + 2 then (
      killed := true;
      Scheduler.Crash 0)
    else if Scheduler.is_runnable v 0 then Scheduler.Run 0
    else Scheduler.Stop
  in
  ignore
    (Sim.run ~recover ~sched:{ Scheduler.name = "targeted"; pick } [| body |]);
  let status_str = function
    | `Completed -> "completed"
    | `Maybe_lost -> "maybe-lost"
    | `Never_claimed -> "never-claimed"
  in
  match !seen with
  | None -> Alcotest.fail "recovery never ran"
  | Some (resume, st0, st1) ->
    check_int "resume = highest claimed seq" 1 resume;
    Alcotest.(check string)
      "seq 0 applied and acknowledged" "completed" (status_str st0);
    Alcotest.(check string)
      "seq 1 crashed in the claim window" "maybe-lost" (status_str st1)

(* The shared workload for the double-apply demonstrations: p0 submits
   requests (seq 0: component 0 := A, seq 1: component 1 := C); p1 submits
   (seq 0: component 0 := B) and then scans component 0.  A crash–restart
   of a process re-drives its whole request log.  With naive (raw)
   re-invocation, p0's restart can re-apply A after B landed, so p1's scan
   sees the overwritten A again — no linearization of the opid spec
   (duplicates are absorbed, so A cannot reappear) explains that. *)

let vA = 111

let vB = 222

let vC = 333

let raw_store_run ~record_trace ~sched =
  let regs = [| M.make (-1); M.make (-2) |] in
  let hist = History.create ~now:Sim.mark () in
  let drive_log ~pid log =
    List.iter
      (fun (seq, i, v) ->
        ignore
          (History.record hist ~pid (DSpec.Up { pid; seq; i; v }) (fun () ->
               M.write regs.(i) v;
               DSpec.Ack)))
      log
  in
  let p0 () = drive_log ~pid:0 [ (0, 0, vA); (1, 1, vC) ] in
  let p1 () =
    drive_log ~pid:1 [ (0, 0, vB) ];
    for _ = 1 to 3 do
      ignore
        (History.record hist ~pid:1 (DSpec.Scan [| 0 |]) (fun () ->
             DSpec.Vals [| M.read regs.(0) |]))
    done
  in
  (* Raw at-least-once recovery: re-drive the whole log, no detection. *)
  let recover ~pid ~incarnation:_ () = if pid = 0 then p0 () else p1 () in
  let res = Sim.run ~record_trace ~recover ~sched [| p0; p1 |] in
  let linearizable =
    D.Checker.check
      ~init:(DSpec.init ~n:2 [| -1; -2 |])
      (History.entries hist)
  in
  (res, linearizable)

let raw_store_fails decisions =
  match
    raw_store_run ~record_trace:false
      ~sched:(Scheduler.replay_decisions ~lenient:true ~fallback:(rr ()) decisions)
  with
  | _, linearizable -> not linearizable
  | exception _ -> true

let find_failing_seed ~run ~seeds =
  let rec go seed =
    if seed >= seeds then None
    else
      let _, linearizable =
        run ~record_trace:false
          ~sched:(Scheduler.chaos ~seed ~rate:0.3 ~max_restart_delay:4 ())
      in
      if not linearizable then Some seed else go (seed + 1)
  in
  go 0

let test_planted_double_apply_found_and_shrunk () =
  (* 1. the chaos nemesis finds the planted bug *)
  let seed =
    match find_failing_seed ~run:raw_store_run ~seeds:300 with
    | Some s -> s
    | None -> Alcotest.fail "chaos never triggered the double-apply bug"
  in
  (* 2. the failing execution replays exactly from its recorded schedule *)
  let res, _ =
    raw_store_run ~record_trace:true
      ~sched:(Scheduler.chaos ~seed ~rate:0.3 ~max_restart_delay:4 ())
  in
  let schedule = Trace.schedule res.trace in
  check_bool "recorded schedule reproduces the failure" true
    (raw_store_fails schedule);
  (* 3. ddmin shrinks it to a minimal schedule that still fails *)
  let minimal, _calls = Shrink.minimize ~oracle:raw_store_fails schedule in
  check_bool "minimal schedule still fails under replay" true
    (raw_store_fails minimal);
  check_bool
    (Printf.sprintf "minimal schedule is small (%d decisions <= 12)"
       (List.length minimal))
    true
    (List.length minimal <= 12);
  (* 1-minimality: dropping any single decision makes the failure vanish *)
  List.iteri
    (fun i _ ->
      let cand = List.filteri (fun j _ -> j <> i) minimal in
      check_bool "1-minimal" false (raw_store_fails cand))
    minimal

(* Same workload over the real Figure 3 object: raw re-invocation double-
   applies there too (the re-applied A record can even void B's CAS), while
   the Detectable wrapper survives the identical nemesis. *)

let fig3_raw_run ~record_trace ~sched =
  let t = Sim_fig3.create ~n:2 [| -1; -2 |] in
  let hist = History.create ~now:Sim.mark () in
  let drive_log ~pid log =
    let h = Sim_fig3.handle t ~pid in
    List.iter
      (fun (seq, i, v) ->
        ignore
          (History.record hist ~pid (DSpec.Up { pid; seq; i; v }) (fun () ->
               Sim_fig3.update h i v;
               DSpec.Ack)))
      log
  in
  let scan_once ~pid h =
    ignore
      (History.record hist ~pid (DSpec.Scan [| 0 |]) (fun () ->
           DSpec.Vals (Sim_fig3.scan h [| 0 |])))
  in
  let p0 () = drive_log ~pid:0 [ (0, 0, vA); (1, 1, vC) ] in
  let p1 () =
    drive_log ~pid:1 [ (0, 0, vB) ];
    let h = Sim_fig3.handle t ~pid:1 in
    for _ = 1 to 3 do
      scan_once ~pid:1 h
    done
  in
  let recover ~pid ~incarnation:_ () = if pid = 0 then p0 () else p1 () in
  let res = Sim.run ~record_trace ~recover ~sched [| p0; p1 |] in
  let linearizable =
    D.Checker.check
      ~init:(DSpec.init ~n:2 [| -1; -2 |])
      (History.entries hist)
  in
  (res, linearizable)

let test_fig3_raw_reinvocation_double_applies () =
  match find_failing_seed ~run:fig3_raw_run ~seeds:300 with
  | Some _ -> ()
  | None ->
    Alcotest.fail
      "raw Figure 3 re-invocation never double-applied under chaos"

let test_detectable_exactly_once_campaign () =
  (* The acceptance bar: >= 100 seeded crash–restart runs, all passing the
     exactly-once spec, with the chaos parameters under which the raw
     recovery double-applies. *)
  let seeds = 120 in
  let restarts = ref 0 in
  let detections = ref 0 in
  for seed = 0 to seeds - 1 do
    let t = Det.create ~n:2 [| -1; -2 |] in
    let hist = History.create ~now:Sim.mark () in
    let drive_log ~pid log =
      let h = Det.handle t ~pid in
      List.iter
        (fun (seq, i, v) ->
          (* Recovery protocol: consult the claim register; re-submit only
             requests it does not account for.  [resume] is shared state,
             so this survives arbitrarily many incarnations. *)
          if seq > Det.resume h then
            ignore
              (History.record hist ~pid (DSpec.Up { pid; seq; i; v })
                 (fun () ->
                   (match Det.update h ~seq i v with
                   | `Applied -> ()
                   | `Skipped -> incr detections);
                   DSpec.Ack))
          else incr detections)
        log
    in
    let p0 () = drive_log ~pid:0 [ (0, 0, vA); (1, 1, vC) ] in
    let p1 () =
      drive_log ~pid:1 [ (0, 0, vB) ];
      let h = Det.handle t ~pid:1 in
      for _ = 1 to 3 do
        ignore
          (History.record hist ~pid:1 (DSpec.Scan [| 0 |]) (fun () ->
               DSpec.Vals (Det.scan h [| 0 |])))
      done
    in
    let recover ~pid ~incarnation:_ () = if pid = 0 then p0 () else p1 () in
    let res =
      Sim.run ~recover
        ~sched:(Scheduler.chaos ~seed ~rate:0.3 ~max_restart_delay:4 ())
        [| p0; p1 |]
    in
    restarts :=
      !restarts + Array.fold_left (fun a i -> a + (i - 1)) 0 res.incarnations;
    let ok =
      D.Checker.check
        ~init:(DSpec.init ~n:2 [| -1; -2 |])
        (History.entries hist)
    in
    if not ok then Alcotest.failf "seed %d: exactly-once spec violated" seed
  done;
  check_bool "campaign injected restarts" true (!restarts > 20);
  check_bool "claim register actually detected duplicates" true
    (!detections > 0)

(* ---- weak CAS: the helping loops tolerate spurious failure ---- *)

let test_fig3_tolerates_weak_cas () =
  (* With seeded spurious CAS failures on, Figure 3's update retries while
     the location is physically unchanged ([@psnap.helping] loop) and its
     active set's one-shot CAS optimizations degrade gracefully; histories
     must stay linearizable and no update may be silently dropped. *)
  M.set_weak_cas ~seed:11 ~rate:0.3 ();
  Fun.protect ~finally:M.clear_weak_cas (fun () ->
      snapshot_chaos_campaign (module Sim_fig3) ~seeds:10;
      check_bool "spurious failures actually injected" true
        (M.weak_cas_spurious () > 0))

let test_weak_cas_update_not_lost () =
  (* The sharpest form of the claim: a solo updater whose CAS fails only
     spuriously must still publish its value. *)
  M.set_weak_cas ~seed:5 ~rate:0.5 ();
  Fun.protect ~finally:M.clear_weak_cas (fun () ->
      let t = Sim_fig3.create ~n:1 [| 0 |] in
      let body () =
        let h = Sim_fig3.handle t ~pid:0 in
        Sim_fig3.update h 0 42;
        Alcotest.(check (array int))
          "update survived spurious failures" [| 42 |]
          (Sim_fig3.scan h [| 0 |])
      in
      ignore (Sim.run ~sched:(rr ()) [| body |]);
      check_bool "at least one spurious failure hit the update" true
        (M.weak_cas_spurious () > 0))

let () =
  Alcotest.run "crash_restart"
    [
      ( "kernel",
        [
          Alcotest.test_case "restart respawns on recovery" `Quick
            test_restart_respawns_on_recovery;
          Alcotest.test_case "unrestarted crash is legal" `Quick
            test_crashed_pid_never_restarted_is_legal;
          Alcotest.test_case "restart needs recovery fn" `Quick
            test_restart_without_recovery_rejected;
          Alcotest.test_case "restart needs crashed pid" `Quick
            test_restart_of_running_pid_rejected;
          Alcotest.test_case "fault budget" `Quick
            test_fault_budget_bounds_crash_restart_loops;
          Alcotest.test_case "multiple incarnations" `Quick
            test_multiple_incarnations;
          Alcotest.test_case "chaos deterministic" `Quick
            test_chaos_deterministic;
        ] );
      ( "replay",
        [
          Alcotest.test_case "decision replay strict/lenient" `Quick
            test_replay_decisions_strict_and_lenient;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "ddmin minimizes" `Quick test_ddmin_minimizes;
          Alcotest.test_case "passing schedule rejected" `Quick
            test_ddmin_rejects_passing_schedule;
          Alcotest.test_case "empty schedule" `Quick test_ddmin_empty_schedule;
          Alcotest.test_case "already 1-minimal input" `Quick
            test_ddmin_already_minimal;
          Alcotest.test_case "irreducible schedule" `Quick
            test_ddmin_needs_whole_schedule;
          Alcotest.test_case "schedule file roundtrip" `Quick
            test_schedule_file_roundtrip;
        ] );
      ( "lin-under-chaos",
        [
          Alcotest.test_case "fig1" `Slow test_fig1_linearizable_under_chaos;
          Alcotest.test_case "fig3" `Slow test_fig3_linearizable_under_chaos;
          Alcotest.test_case "fig2 active set" `Slow
            test_fig2_valid_under_chaos;
        ] );
      ( "detectable",
        [
          Alcotest.test_case "claim skips duplicates" `Quick
            test_detectable_skips_claimed_request;
          Alcotest.test_case "resume after crash" `Quick
            test_detectable_resume_after_crash;
          Alcotest.test_case "planted bug found and shrunk" `Slow
            test_planted_double_apply_found_and_shrunk;
          Alcotest.test_case "raw fig3 double-applies" `Slow
            test_fig3_raw_reinvocation_double_applies;
          Alcotest.test_case "exactly-once campaign" `Slow
            test_detectable_exactly_once_campaign;
        ] );
      ( "weak-cas",
        [
          Alcotest.test_case "fig3 campaign under weak cas" `Slow
            test_fig3_tolerates_weak_cas;
          Alcotest.test_case "solo update not lost" `Quick
            test_weak_cas_update_not_lost;
        ] );
    ]
