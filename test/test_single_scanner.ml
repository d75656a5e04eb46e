(* Tests of the single-writer/single-scanner snapshot (related work [22]):
   sequential semantics, O(1)/O(r) step costs, linearizability within its
   restrictions under random and exhaustive schedules — and the exhaustive
   counterexample showing the restriction is necessary: used with two
   writers on one component, the explorer finds a real non-linearizable
   execution.  That failure is the structural reason the paper's general
   multi-writer algorithm needs CAS and helping. *)

open Psnap
module S = On_sim.Single_scanner

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let in_sim f =
  let out = ref None in
  ignore
    (Sim.run ~sched:(Scheduler.round_robin ())
       [| (fun () -> out := Some (f ())) |]);
  Option.get !out

let test_sequential () =
  in_sim (fun () ->
      (* one process owns everything and scans *)
      let t = S.create ~owner:[| 0; 0; 0 |] ~scanner:0 [| 1; 2; 3 |] in
      let h = S.handle t ~pid:0 in
      Alcotest.(check (array int)) "initial" [| 1; 3 |] (S.scan h [| 0; 2 |]);
      S.update h 1 20;
      S.update h 2 30;
      Alcotest.(check (array int))
        "after updates" [| 1; 20; 30 |]
        (S.scan h [| 0; 1; 2 |]);
      (* repeated scans stay stable *)
      Alcotest.(check (array int)) "stable" [| 20 |] (S.scan h [| 1 |]))

let test_restrictions_enforced () =
  in_sim (fun () ->
      let t = S.create ~owner:[| 0; 1 |] ~scanner:2 [| 0; 0 |] in
      let h0 = S.handle t ~pid:0 in
      S.update h0 0 5;
      check_bool "foreign update rejected" true
        (match S.update h0 1 9 with
        | () -> false
        | exception Invalid_argument _ -> true);
      check_bool "foreign scan rejected" true
        (match S.scan h0 [| 0 |] with
        | _ -> false
        | exception Invalid_argument _ -> true))

let test_step_costs () =
  let upd_steps = ref 0 and scan_steps = ref 0 in
  ignore
    (Sim.run ~sched:(Scheduler.round_robin ())
       [|
         (fun () ->
           let t =
             S.create ~owner:(Array.make 64 0) ~scanner:0
               (Array.init 64 (fun i -> i))
           in
           let h = S.handle t ~pid:0 in
           let s0 = Sim.steps_of 0 in
           S.update h 17 1;
           upd_steps := Sim.steps_of 0 - s0;
           let s1 = Sim.steps_of 0 in
           ignore (S.scan h [| 1; 9; 25; 49 |]);
           scan_steps := Sim.steps_of 0 - s1);
       |]);
  check_int "update = 3 steps (read cell, read seq, write)" 3 !upd_steps;
  check_int "scan of r=4 = r+1 steps" 5 !scan_steps

(* linearizable within restrictions: random schedules, observation check *)
let test_random_schedules_linearizable () =
  let m = 6 in
  let owner = Array.init m (fun i -> i mod 2) in
  let init = Array.init m (fun i -> -(i + 1)) in
  for seed = 0 to 29 do
    let hist = History.create ~now:Sim.mark () in
    let t = S.create ~owner ~scanner:2 (Array.copy init) in
    let writer pid () =
      let h = S.handle t ~pid in
      for k = 1 to 25 do
        let i = (((2 * k) + pid) mod m / 2 * 2) + pid in
        (* components with owner = pid *)
        let i = if owner.(i) = pid then i else (i + 1) mod m in
        let v = (pid * 10_000) + k in
        ignore
          (History.record hist ~pid (Snapshot_spec.Update (i, v)) (fun () ->
               S.update h i v;
               Snapshot_spec.Ack))
      done
    in
    let scanner () =
      let h = S.handle t ~pid:2 in
      for _ = 1 to 12 do
        let idxs = [| 0; 1; 4 |] in
        ignore
          (History.record hist ~pid:2 (Snapshot_spec.Scan idxs) (fun () ->
               Snapshot_spec.Vals (S.scan h idxs)))
      done
    in
    ignore
      (Sim.run ~sched:(Scheduler.random ~seed ()) [| writer 0; writer 1; scanner |]);
    match Snapshot_spec.check_observations ~init (History.entries hist) with
    | [] -> ()
    | v :: _ ->
      Alcotest.failf "seed %d: %a" seed Snapshot_spec.pp_violation v
  done

(* all interleavings of one owner + the scanner: exact linearizability *)
let test_exhaustive_single_writer () =
  let init = [| -1; -2 |] in
  let schedules = ref 0 in
  let make () =
    let hist = History.create ~now:Sim.mark () in
    let t = S.create ~owner:[| 0; 0 |] ~scanner:1 (Array.copy init) in
    let procs =
      [|
        (fun () ->
          let h = S.handle t ~pid:0 in
          ignore
            (History.record hist ~pid:0 (Snapshot_spec.Update (0, 7)) (fun () ->
                 S.update h 0 7;
                 Snapshot_spec.Ack));
          ignore
            (History.record hist ~pid:0 (Snapshot_spec.Update (1, 8)) (fun () ->
                 S.update h 1 8;
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
    ( procs,
      fun () ->
        incr schedules;
        if not (Snapshot_spec.check ~init (History.entries hist)) then
          Alcotest.fail "non-linearizable interleaving (single-writer use)" )
  in
  ignore (Explore.run ~make ());
  check_bool
    (Printf.sprintf "schedules: %d" !schedules)
    true (!schedules > 100)

(* the counterexample: two writers on ONE component via the unchecked
   update; the explorer must find a non-linearizable execution *)
let test_exhaustive_multi_writer_breaks () =
  let init = [| -1 |] in
  let violations = ref 0 and schedules = ref 0 in
  let make () =
    let hist = History.create ~now:Sim.mark () in
    let t = S.create ~owner:[| 0 |] ~scanner:2 (Array.copy init) in
    let upd pid v () =
      let h = S.handle t ~pid in
      ignore
        (History.record hist ~pid (Snapshot_spec.Update (0, v)) (fun () ->
             S.update_unchecked h 0 v;
             Snapshot_spec.Ack))
    in
    let fence = Psnap.Mem.Sim.make 0 in
    let procs =
      [|
        upd 0 20;
        upd 1 10;
        (fun () ->
          let h = S.handle t ~pid:2 in
          (* one shared step before invoking the scan, so schedules exist in
             which a whole update really precedes the scan's invocation
             (fibers otherwise run their local prefix, including the
             invocation stamp, before any scheduling) *)
          ignore (Psnap.Mem.Sim.read fence);
          ignore
            (History.record hist ~pid:2 (Snapshot_spec.Scan [| 0 |]) (fun () ->
                 Snapshot_spec.Vals (S.scan h [| 0 |]))));
      |]
    in
    ( procs,
      fun () ->
        incr schedules;
        if not (Snapshot_spec.check ~init (History.entries hist)) then
          incr violations )
  in
  ignore (Explore.run ~make ());
  check_bool
    (Printf.sprintf "explored %d schedules, %d violations" !schedules !violations)
    true
    (!violations > 0)

let () =
  Alcotest.run "single_scanner"
    [
      ( "unit",
        [
          Alcotest.test_case "sequential" `Quick test_sequential;
          Alcotest.test_case "restrictions" `Quick test_restrictions_enforced;
          Alcotest.test_case "step costs" `Quick test_step_costs;
        ] );
      ( "linearizable-within-restrictions",
        [
          Alcotest.test_case "random schedules" `Quick
            test_random_schedules_linearizable;
          Alcotest.test_case "exhaustive" `Quick test_exhaustive_single_writer;
        ] );
      ( "restriction-necessity",
        [
          Alcotest.test_case "multi-writer counterexample found" `Quick
            test_exhaustive_multi_writer_breaks;
        ] );
    ]
