(* The memory-fault model (docs/MODEL.md §9): per-kind cell semantics,
   decision plumbing (traces, schedule files, replay), the mem_storm /
   corrupt_on_op nemeses, and the destructive half of E15 — raw Figure 3
   produces non-linearizable histories under seeded corruption, and the
   failing schedule ddmin-shrinks to a minimal witness containing a fault
   decision. *)

open Psnap
module M = Mem.Sim

let () = M.set_strict true

let () = M.set_fault_tracking true

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let rr () = Scheduler.round_robin ()

let forced decisions =
  Scheduler.replay_decisions ~lenient:false ~fallback:(rr ()) decisions

let fault kind oid = Scheduler.Mem_fault { kind; oid }

let fresh_cell ?(v = 0) () =
  Sim.reset_prerun_oids ();
  M.reset_fault_counts ();
  M.make ~name:"x" v

(* ---- per-kind semantics on raw cells ---- *)

let test_corrupt_flips_immediate () =
  let r = fresh_cell ~v:41 () in
  let seen = ref 0 in
  let body () = seen := M.read r in
  ignore
    (Sim.run ~sched:(forced [ fault Event.Corrupt (M.oid r); Scheduler.Run 0 ])
       [| body |]);
  check_int "low bit flipped" 40 !seen;
  let c = M.fault_counts Event.Corrupt in
  check_int "injected" 1 c.M.injected;
  check_int "fired" 1 c.M.fired

let test_corrupt_garbles_block () =
  Sim.reset_prerun_oids ();
  M.reset_fault_counts ();
  let r = M.make ~name:"pair" (7, "payload") in
  let seen = ref (0, "") in
  let body () = seen := M.read r in
  ignore
    (Sim.run ~sched:(forced [ fault Event.Corrupt (M.oid r); Scheduler.Run 0 ])
       [| body |]);
  (* the duplicated block has its first immediate field bit-flipped; the
     rest is intact *)
  check_bool "first field flipped" true (fst !seen = 6);
  check_bool "second field intact" true (snd !seen = "payload")

let test_lost_write_drops_next_write () =
  let r = fresh_cell () in
  let seen = ref (-1) in
  let body () =
    M.write r 1;
    seen := M.read r
  in
  ignore
    (Sim.run
       ~sched:
         (forced
            [ fault Event.Lost_write (M.oid r); Scheduler.Run 0; Scheduler.Run 0 ])
       [| body |]);
  check_int "write vanished" 0 !seen;
  check_int "fired" 1 (M.fault_counts Event.Lost_write).M.fired

let test_acked_but_lost_cas () =
  let r = fresh_cell () in
  let ok = ref false in
  let seen = ref (-1) in
  let body () =
    ok := M.cas r ~expected:0 ~desired:5;
    seen := M.read r
  in
  ignore
    (Sim.run
       ~sched:
         (forced
            [ fault Event.Lost_write (M.oid r); Scheduler.Run 0; Scheduler.Run 0 ])
       [| body |]);
  check_bool "CAS acknowledged" true !ok;
  check_int "nothing installed" 0 !seen

let test_stale_read_serves_history_once () =
  let r = fresh_cell () in
  let first = ref (-1) and second = ref (-1) in
  let body () =
    M.write r 1;
    M.write r 2;
    first := M.read r;
    second := M.read r
  in
  ignore
    (Sim.run
       ~sched:
         (forced
            [
              Scheduler.Run 0;
              Scheduler.Run 0;
              fault Event.Stale_read (M.oid r);
              Scheduler.Run 0;
              Scheduler.Run 0;
            ])
       [| body |]);
  check_int "superseded value served once" 1 !first;
  check_int "then current again" 2 !second

let test_stale_read_needs_history () =
  let r = fresh_cell () in
  let body () = ignore (M.read r) in
  ignore
    (Sim.run ~sched:(forced [ fault Event.Stale_read (M.oid r); Scheduler.Run 0 ])
       [| body |]);
  (* no superseded value exists: the decision is absorbed, not armed *)
  let c = M.fault_counts Event.Stale_read in
  check_int "absorbed" 1 c.M.absorbed;
  check_int "not injected" 0 c.M.injected

let test_stuck_cell_refuses_writes_forever () =
  let r = fresh_cell () in
  let cas_ok = ref true in
  let seen = ref (-1) in
  let body () =
    M.write r 1;
    cas_ok := M.cas r ~expected:0 ~desired:2;
    seen := M.read r
  in
  ignore
    (Sim.run
       ~sched:
         (forced
            [
              fault Event.Stuck_cell (M.oid r);
              Scheduler.Run 0;
              Scheduler.Run 0;
              Scheduler.Run 0;
            ])
       [| body |]);
  check_int "frozen at initial value" 0 !seen;
  check_bool "CAS honestly fails" false !cas_ok;
  check_int "two writes refused" 2 (M.fault_counts Event.Stuck_cell).M.fired;
  (* a second stick of the same cell has no effect *)
  ignore
    (Sim.run ~sched:(forced [ fault Event.Stuck_cell (M.oid r); Scheduler.Run 0 ])
       [| (fun () -> ignore (M.read r)) |]);
  check_int "re-stick absorbed" 1 (M.fault_counts Event.Stuck_cell).M.absorbed

let test_unknown_oid_absorbed () =
  let _r = fresh_cell () in
  ignore
    (Sim.run
       ~sched:(forced [ fault Event.Corrupt 424242; Scheduler.Run 0 ])
       [| (fun () -> ignore (M.read _r)) |]);
  check_int "unknown cell absorbs" 1 (M.fault_counts Event.Corrupt).M.absorbed

(* ---- decision plumbing: serialization, traces, replay ---- *)

let test_schedule_file_roundtrip_with_faults () =
  let decisions =
    [
      Scheduler.Run 1;
      fault Event.Lost_write 3;
      fault Event.Stale_read (-2);
      fault Event.Corrupt 7;
      fault Event.Stuck_cell 0;
      Scheduler.Crash 0;
      Scheduler.Stop;
    ]
  in
  let path = Filename.temp_file "psnap" ".sched" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Shrink.save path decisions;
      check_bool "roundtrip" true (Shrink.load path = decisions))

let test_trace_records_and_replays_faults () =
  Sim.reset_prerun_oids ();
  M.reset_fault_counts ();
  let mk () =
    Sim.reset_prerun_oids ();
    M.make ~name:"x" 0
  in
  let body r () =
    M.write r 1;
    ignore (M.read r)
  in
  let r1 = mk () in
  let decisions =
    [ fault Event.Corrupt (M.oid r1); Scheduler.Run 0; Scheduler.Run 0 ]
  in
  let res1 = Sim.run ~record_trace:true ~sched:(forced decisions) [| body r1 |] in
  let faults_in_trace = Trace.mem_faults res1.trace in
  check_bool "fault event recorded" true
    (faults_in_trace = [ (Event.Corrupt, (M.oid r1)) ]);
  (* the schedule extracted from the trace replays the same execution *)
  let sched = Trace.schedule res1.trace in
  let r2 = mk () in
  let res2 =
    Sim.run ~record_trace:true
      ~sched:(Scheduler.replay_decisions ~lenient:true ~fallback:(rr ()) sched)
      [| body r2 |]
  in
  check_bool "replay reproduces trace" true
    (Trace.schedule res2.trace = sched)

(* ---- nemeses ---- *)

let test_corrupt_on_op_hits_cas_window () =
  Sim.reset_prerun_oids ();
  M.reset_fault_counts ();
  let r = M.make ~name:"x" 0 in
  let ok = ref true in
  let seen = ref (-1) in
  let body () =
    ok := M.cas r ~expected:0 ~desired:7;
    seen := M.read r
  in
  ignore
    (Sim.run
       ~sched:(Scheduler.corrupt_on_op ~pid:0 ~op:Event.Cas (rr ()))
       [| body |]);
  (* the cell was garbled while pid 0 was suspended at its CAS: the CAS
     must fail (physical mismatch against the corrupted contents) *)
  check_bool "CAS lost to corruption" false !ok;
  check_int "corrupted value visible" 1 !seen;
  check_int "one corruption" 1 (M.fault_counts Event.Corrupt).M.injected

let test_mem_storm_injects_and_is_bounded () =
  M.reset_fault_counts ();
  let total = ref 0 in
  for seed = 0 to 19 do
    Sim.reset_prerun_oids ();
    let r = M.make ~name:"x" 0 in
    let body pid () =
      for k = 1 to 20 do
        M.write r ((pid * 100) + k);
        ignore (M.read r)
      done
    in
    let res =
      Sim.run ~record_trace:true
        ~sched:
          (Scheduler.mem_storm ~seed ~rate:0.2 ~max_faults:5
             (Scheduler.random ~seed ()))
        [| body 0; body 1 |]
    in
    let n = List.length (Trace.mem_faults res.trace) in
    check_bool "at most max_faults" true (n <= 5);
    total := !total + n
  done;
  check_bool "storm injected faults" true (!total > 0)

(* ---- E15, destructive half: raw Figure 3 breaks under corruption ---- *)

(* Corruption can livelock raw Figure 3; a run gets the step budget of
   its workload's shape (2 updaters x 5 updates, 1 scanner x 3 scans). *)
let e15_budget =
  Psnap_harness.Scenario.step_budget
    { m = 6; r = 3; updaters = 2; updates = 5; scanners = 1; scans = 3 }

let fig3_mem_fault_run ~record_trace ~sched =
  let module S = Sim_fig3 in
  let m = 6 in
  let init = Array.init m (fun i -> -(i + 1)) in
  Sim.reset_prerun_oids ();
  let hist = History.create ~now:Sim.mark () in
  let t = S.create ~n:3 (Array.copy init) in
  let updater pid () =
    let h = S.handle t ~pid in
    for k = 1 to 5 do
      let i = (k + (pid * 3)) mod m in
      let v = (pid * 1_000_000) + k in
      ignore
        (History.record hist ~pid (Snapshot_spec.Update (i, v)) (fun () ->
             S.update h i v;
             Snapshot_spec.Ack))
    done
  in
  let scanner pid () =
    let h = S.handle t ~pid in
    let idxs = [| 0; 2; 4 |] in
    for _ = 1 to 3 do
      ignore
        (History.record hist ~pid (Snapshot_spec.Scan idxs) (fun () ->
             Snapshot_spec.Vals (S.scan h idxs)))
    done
  in
  let procs = [| updater 0; updater 1; scanner 2 |] in
  let res = Sim.run ~record_trace ~max_steps:e15_budget ~sched procs in
  (res, Snapshot_spec.check_observations ~init (History.entries hist))

let storm_sched seed =
  Scheduler.mem_storm ~seed ~kinds:[ Event.Corrupt ] ~rate:0.08 ~max_faults:10
    (Scheduler.random ~seed ())

let find_failing_seed ~seeds =
  let rec go seed =
    if seed >= seeds then None
    else
      match fig3_mem_fault_run ~record_trace:true ~sched:(storm_sched seed) with
      | _, [] -> go (seed + 1)
      | res, _ :: _ -> Some (seed, res)
      | exception _ -> go (seed + 1)
  in
  go 0

(* A violation, a livelock past the budget and an escaped garbled value
   all convict. *)
let raw_fig3_fails decisions =
  Psnap_harness.Campaign.(
    convicts
      (judge (fun () ->
           snd
             (fig3_mem_fault_run ~record_trace:false
                ~sched:
                  (Scheduler.replay_decisions ~lenient:true ~fallback:(rr ())
                     decisions)))))

let test_raw_fig3_breaks_and_shrinks () =
  match find_failing_seed ~seeds:300 with
  | None ->
    Alcotest.fail "no corrupting storm broke raw fig3 in 300 seeds"
  | Some (seed, res) ->
    let schedule = Trace.schedule res.trace in
    check_bool
      (Printf.sprintf "seed %d reproduces deterministically" seed)
      true (raw_fig3_fails schedule);
    let minimal, _calls = Shrink.minimize ~oracle:raw_fig3_fails schedule in
    check_bool "minimal still fails" true (raw_fig3_fails minimal);
    check_bool "shrunk" true (List.length minimal <= List.length schedule);
    check_bool "witness contains a fault decision" true
      (List.exists
         (function Scheduler.Mem_fault _ -> true | _ -> false)
         minimal);
    (* 1-minimality: dropping any single decision loses the failure *)
    List.iteri
      (fun i _ ->
        let without = List.filteri (fun j _ -> j <> i) minimal in
        check_bool
          (Printf.sprintf "dropping decision %d passes" i)
          false (raw_fig3_fails without))
      minimal

let () =
  Alcotest.run "mem_faults"
    [
      ( "cell-semantics",
        [
          Alcotest.test_case "corrupt flips immediate" `Quick
            test_corrupt_flips_immediate;
          Alcotest.test_case "corrupt garbles block" `Quick
            test_corrupt_garbles_block;
          Alcotest.test_case "lost write drops next write" `Quick
            test_lost_write_drops_next_write;
          Alcotest.test_case "acked-but-lost CAS" `Quick
            test_acked_but_lost_cas;
          Alcotest.test_case "stale read serves history once" `Quick
            test_stale_read_serves_history_once;
          Alcotest.test_case "stale read needs history" `Quick
            test_stale_read_needs_history;
          Alcotest.test_case "stuck cell refuses writes forever" `Quick
            test_stuck_cell_refuses_writes_forever;
          Alcotest.test_case "unknown oid absorbed" `Quick
            test_unknown_oid_absorbed;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "schedule file roundtrip with faults" `Quick
            test_schedule_file_roundtrip_with_faults;
          Alcotest.test_case "trace records and replays faults" `Quick
            test_trace_records_and_replays_faults;
        ] );
      ( "nemeses",
        [
          Alcotest.test_case "corrupt_on_op hits the CAS window" `Quick
            test_corrupt_on_op_hits_cas_window;
          Alcotest.test_case "mem_storm injects and is bounded" `Quick
            test_mem_storm_injects_and_is_bounded;
        ] );
      ( "e15-destructive",
        [
          Alcotest.test_case "raw fig3 breaks under corruption and shrinks"
            `Slow test_raw_fig3_breaks_and_shrinks;
        ] );
    ]
