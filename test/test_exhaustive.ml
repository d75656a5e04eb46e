(* Exhaustive schedule exploration on tiny configurations: every possible
   interleaving of the processes' shared-memory steps is executed and the
   resulting history checked for linearizability with the exact checker.
   This is the literal form of the paper's "must behave correctly for all
   possible interleavings" (Section 2). *)

open Psnap

module type SNAP = Snapshot.S

(* Cost: every interleaving of every step is run, so only the four base
   constructions; the variants' longer operations multiply the schedule
   count, and the non-blocking scan's retries have no bound. *)
let impls = select [ "afek"; "fig1"; "fig3"; "farray" ] On_sim.snapshots

(* Case ids keep the spellings they were recorded under before the
   table named its rows. *)
let case_name = function
  | "afek" -> "afek-full"
  | "fig1" -> "fig1-reg"
  | "fig3" -> "fig3-cas"
  | n -> n

let explored_label n = Printf.sprintf "schedules explored: %d" n

(* one updater vs one scanner, m = 2 *)
let test_update_vs_scan (module S : SNAP) () =
  let init = [| -1; -2 |] in
  let schedules = ref 0 in
  let make () =
    let hist = History.create ~now:Sim.mark () in
    let t = S.create ~n:2 (Array.copy init) in
    let procs =
      [|
        (fun () ->
          let h = S.handle t ~pid:0 in
          ignore
            (History.record hist ~pid:0 (Snapshot_spec.Update (0, 7)) (fun () ->
                 S.update h 0 7;
                 Snapshot_spec.Ack)));
        (fun () ->
          let h = S.handle t ~pid:1 in
          ignore
            (History.record hist ~pid:1 (Snapshot_spec.Scan [| 0; 1 |])
               (fun () -> Snapshot_spec.Vals (S.scan h [| 0; 1 |]))));
      |]
    in
    ( procs,
      fun () ->
        incr schedules;
        if not (Snapshot_spec.check ~init (History.entries hist)) then
          Alcotest.fail "non-linearizable interleaving found" )
  in
  ignore (Explore.run ~make ());
  (* farray scans are a single step, so that configuration has only ~10
     interleavings; the others have hundreds to thousands *)
  Alcotest.(check bool) (explored_label !schedules) true (!schedules >= 10)

(* Two updaters on the same component vs one scanner.  Three-process
   exhaustive exploration is only tractable for the cheap Afek operations
   (a few steps each); fig1/fig3 scans/updates take ~6-10 steps each and the
   interleaving count is multinomial in step counts (hundreds of millions),
   so those algorithms get the two-process exhaustive tests plus the heavy
   randomized-schedule suites in test_snapshot.ml instead. *)
let test_competing_updates_afek () =
  let module S = On_sim.Afek in
  let init = [| -1 |] in
  let schedules = ref 0 in
  let make () =
    let hist = History.create ~now:Sim.mark () in
    let t = S.create ~n:3 (Array.copy init) in
    let upd pid v () =
      let h = S.handle t ~pid in
      ignore
        (History.record hist ~pid (Snapshot_spec.Update (0, v)) (fun () ->
             S.update h 0 v;
             Snapshot_spec.Ack))
    in
    let procs =
      [|
        upd 0 10;
        upd 1 20;
        (fun () ->
          let h = S.handle t ~pid:2 in
          ignore
            (History.record hist ~pid:2 (Snapshot_spec.Scan [| 0 |]) (fun () ->
                 Snapshot_spec.Vals (S.scan h [| 0 |]))));
      |]
    in
    ( procs,
      fun () ->
        incr schedules;
        if not (Snapshot_spec.check ~init (History.entries hist)) then
          Alcotest.fail "non-linearizable interleaving found" )
  in
  ignore (Explore.run ~max_runs:1_000_000 ~make ());
  Alcotest.(check bool) (explored_label !schedules) true (!schedules >= 100)

(* Figure 3 CAS-failure path, exhaustively: two competing updaters on one
   component, the first updating it twice, so its second install races
   the other's over a cell it already wrote once; after both complete,
   the surviving value must be the last update of one of the two and a
   subsequent scan must return it. *)
let test_fig3_competing_updates_exhaustive () =
  let module S = Sim_fig3 in
  let schedules = ref 0 in
  let make () =
    let t = S.create ~n:2 [| -1 |] in
    let upd pid vs () =
      let h = S.handle t ~pid in
      List.iter (S.update h 0) vs
    in
    let procs = [| upd 0 [ 10; 11 ]; upd 1 [ 20 ] |] in
    ( procs,
      fun () ->
        incr schedules;
        (* read back sequentially in a fresh one-process simulation *)
        let out = ref 0 in
        ignore
          (Sim.run ~sched:(Scheduler.round_robin ())
             [|
               (fun () ->
                 let h = S.handle t ~pid:0 in
                 out := (S.scan h [| 0 |]).(0));
             |]);
        if !out <> 11 && !out <> 20 then
          Alcotest.failf "lost the last updates: %d" !out )
  in
  ignore (Explore.run ~max_runs:1_000_000 ~make ());
  Alcotest.(check bool) (explored_label !schedules) true (!schedules >= 100)

(* crash at every possible point of an update, scanner must still return a
   linearizable answer *)
let test_crash_everywhere (module S : SNAP) () =
  let init = [| -1; -2 |] in
  (* First measure the crash-free updater step count, then crash at each
     clock value in turn under a fixed scheduler. *)
  let run ~crash_at =
    let hist = History.create ~now:Sim.mark () in
    let t = S.create ~n:2 (Array.copy init) in
    let procs =
      [|
        (fun () ->
          let h = S.handle t ~pid:0 in
          ignore
            (History.record hist ~pid:0 (Snapshot_spec.Update (0, 7)) (fun () ->
                 S.update h 0 7;
                 Snapshot_spec.Ack)));
        (fun () ->
          let h = S.handle t ~pid:1 in
          for _ = 1 to 2 do
            ignore
              (History.record hist ~pid:1 (Snapshot_spec.Scan [| 0; 1 |])
                 (fun () -> Snapshot_spec.Vals (S.scan h [| 0; 1 |])))
          done);
      |]
    in
    let base = Scheduler.round_robin () in
    let sched =
      match crash_at with
      | None -> base
      | Some c -> Scheduler.with_crash ~pid:0 ~at_clock:c base
    in
    let res = Sim.run ~sched procs in
    (res, hist)
  in
  let baseline, _ = run ~crash_at:None in
  for c = 0 to baseline.clock do
    let _, hist = run ~crash_at:(Some c) in
    if not (Snapshot_spec.check ~init (History.entries hist)) then
      Alcotest.failf "non-linearizable after crash at clock %d" c
  done

let per_impl name f =
  List.map
    (fun (iname, m) ->
      Alcotest.test_case (case_name iname ^ ": " ^ name) `Quick (f m))
    impls

let () =
  Alcotest.run "exhaustive"
    [
      ("update-vs-scan", per_impl "all interleavings" test_update_vs_scan);
      ( "competing-updates",
        [
          Alcotest.test_case "afek: all interleavings" `Quick
            test_competing_updates_afek;
          Alcotest.test_case "fig3: CAS race, all interleavings" `Quick
            test_fig3_competing_updates_exhaustive;
        ] );
      ("crash-everywhere", per_impl "every crash point" test_crash_everywhere);
    ]
