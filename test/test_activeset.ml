(* Tests of both active set implementations: sequential behaviour, validity
   under random and adversarial schedules (checked against the interval
   semantics of Section 2.1), crash tolerance, and the step-complexity
   claims of Theorem 2 for the Figure 2 algorithm. *)

open Psnap

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

module type ASET = Active_set.S

let impls = On_sim.active_sets

let in_sim ?sched f =
  let sched = Option.value sched ~default:(Scheduler.round_robin ()) in
  let out = ref None in
  ignore (Sim.run ~sched [| (fun () -> out := Some (f ())) |]);
  Option.get !out

(* ---- sequential behaviour (both implementations) ---- *)

let test_sequential (module A : ASET) () =
  in_sim (fun () ->
      let t = A.create ~n:4 () in
      let h = A.handle t ~pid:2 in
      Alcotest.(check (list int)) "initially empty" [] (A.get_set t);
      A.join h;
      Alcotest.(check (list int)) "member after join" [ 2 ] (A.get_set t);
      A.leave h;
      Alcotest.(check (list int)) "gone after leave" [] (A.get_set t);
      (* rejoin cycles *)
      for _ = 1 to 5 do
        A.join h;
        Alcotest.(check (list int)) "member again" [ 2 ] (A.get_set t);
        A.leave h
      done;
      Alcotest.(check (list int)) "empty at end" [] (A.get_set t))

let test_two_members (module A : ASET) () =
  in_sim (fun () ->
      let t = A.create ~n:4 () in
      let h0 = A.handle t ~pid:0 and h3 = A.handle t ~pid:3 in
      A.join h0;
      A.join h3;
      Alcotest.(check (list int)) "both, sorted" [ 0; 3 ] (A.get_set t);
      A.leave h0;
      Alcotest.(check (list int)) "one left" [ 3 ] (A.get_set t))

(* ---- concurrent validity under many schedules ---- *)

let record_workload (module A : ASET) ~n ~cycles ~getsets hist =
  let t = A.create ~n () in
  let member pid () =
    let h = A.handle t ~pid in
    for _ = 1 to cycles do
      History.record hist ~pid Activeset_check.Join (fun () ->
          A.join h;
          Activeset_check.Ack)
      |> ignore;
      History.record hist ~pid Activeset_check.Leave (fun () ->
          A.leave h;
          Activeset_check.Ack)
      |> ignore
    done
  in
  let observer pid () =
    for _ = 1 to getsets do
      History.record hist ~pid Activeset_check.Get_set (fun () ->
          Activeset_check.Set (A.get_set t))
      |> ignore
    done
  in
  Array.init n (fun pid -> if pid < n - 2 then member pid else observer pid)

let assert_valid hist =
  match Activeset_check.check (History.entries hist) with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "active set violation: %a" Activeset_check.pp_violation v

let test_random_schedules (module A : ASET) () =
  for seed = 0 to 49 do
    let hist = History.create ~now:Sim.mark () in
    let procs = record_workload (module A) ~n:5 ~cycles:4 ~getsets:6 hist in
    let res = Sim.run ~sched:(Scheduler.random ~seed ()) procs in
    assert (res.outcome = Sim.Completed);
    assert_valid hist
  done

let test_bursty_schedules (module A : ASET) () =
  for seed = 0 to 19 do
    let hist = History.create ~now:Sim.mark () in
    let procs = record_workload (module A) ~n:6 ~cycles:3 ~getsets:5 hist in
    ignore (Sim.run ~sched:(Scheduler.bursty ~seed ()) procs);
    assert_valid hist
  done

let test_crash_tolerance (module A : ASET) () =
  (* Crash a member mid-operation at various points; getSets by survivors
     must stay valid (the crashed process is "joining/leaving forever"). *)
  for seed = 0 to 19 do
    for at_clock = 0 to 10 do
      let hist = History.create ~now:Sim.mark () in
      let procs = record_workload (module A) ~n:4 ~cycles:3 ~getsets:5 hist in
      let sched =
        Scheduler.with_crash ~pid:0 ~at_clock (Scheduler.random ~seed ())
      in
      ignore (Sim.run ~sched procs);
      assert_valid hist
    done
  done

(* ---- exhaustive exploration on a tiny configuration ---- *)

let test_exhaustive_tiny (module A : ASET) () =
  let schedules = ref 0 in
  let make () =
    let hist = History.create ~now:Sim.mark () in
    let t = A.create ~n:2 () in
    let h0 = A.handle t ~pid:0 in
    (* The splitter tree's first join walks the tree (~14 steps), which
       blows up the exhaustive interleaving count; acquire its node in a
       solo setup execution so the explored program uses the O(1) re-join
       path.  First-join acquisition is covered by the randomized, PCT and
       crash suites above. *)
    if A.name = "splitter-tree" then
      ignore
        (Sim.run ~sched:(Scheduler.round_robin ())
           [|
             (fun () ->
               A.join h0;
               A.leave h0);
           |]);
    let procs =
      [|
        (fun () ->
          let h = h0 in
          History.record hist ~pid:0 Activeset_check.Join (fun () ->
              A.join h;
              Activeset_check.Ack)
          |> ignore;
          History.record hist ~pid:0 Activeset_check.Leave (fun () ->
              A.leave h;
              Activeset_check.Ack)
          |> ignore);
        (fun () ->
          History.record hist ~pid:1 Activeset_check.Get_set (fun () ->
              Activeset_check.Set (A.get_set t))
          |> ignore);
      |]
    in
    ( procs,
      fun () ->
        incr schedules;
        assert_valid hist )
  in
  ignore (Explore.run ~make ());
  (* p0 takes >= 2 steps and p1 >= 2 steps, so there are at least
     C(4,2) = 6 interleavings. *)
  check_bool
    (Printf.sprintf "schedules explored: %d" !schedules)
    true (!schedules >= 6)

(* ---- Figure 2 specifics: Theorem 2 ---- *)

module F = On_sim.Fai_cas

(* join and leave are O(1) worst case — constant step count no matter how
   much history or contention the object has seen. *)
let test_fai_join_leave_constant () =
  let steps_of_cycle ~prior_cycles =
    let join_steps = ref 0 and leave_steps = ref 0 in
    let procs =
      [|
        (fun () ->
          let t = F.create ~n:1 () in
          let h = F.handle t ~pid:0 in
          for _ = 1 to prior_cycles do
            F.join h;
            F.leave h
          done;
          let s0 = Sim.steps_of 0 in
          F.join h;
          join_steps := Sim.steps_of 0 - s0;
          let s1 = Sim.steps_of 0 in
          F.leave h;
          leave_steps := Sim.steps_of 0 - s1);
      |]
    in
    ignore (Sim.run ~sched:(Scheduler.round_robin ()) procs);
    (!join_steps, !leave_steps)
  in
  let j0, l0 = steps_of_cycle ~prior_cycles:0 in
  let j1, l1 = steps_of_cycle ~prior_cycles:500 in
  (* join = F&I + directory read + (chunk-install CAS) + slot write;
     leave = directory read + slot write.  Constant regardless of history
     (the 500-cycle join can even be cheaper: its chunk already exists). *)
  check_bool (Printf.sprintf "join O(1): %d" j0) true (j0 <= 4);
  check_bool (Printf.sprintf "leave O(1): %d" l0) true (l0 <= 2);
  check_bool (Printf.sprintf "join O(1) after churn: %d" j1) true (j1 <= 4);
  check_int "leave cost history-independent" l0 l1

(* The interval list makes getSet adaptive: after churn is published in C, a
   getSet skips all vacated slots. *)
let test_fai_getset_skips_vacated () =
  let second_getset_steps = ref 0 in
  let procs =
    [|
      (fun () ->
        let t = F.create ~n:1 () in
        let h = F.handle t ~pid:0 in
        for _ = 1 to 200 do
          F.join h;
          F.leave h
        done;
        (* publishes intervals covering all 200 slots *)
        ignore (F.get_set t);
        let s0 = Sim.steps_of 0 in
        ignore (F.get_set t);
        second_getset_steps := Sim.steps_of 0 - s0);
    |]
  in
  ignore (Sim.run ~sched:(Scheduler.round_robin ()) procs);
  check_bool
    (Printf.sprintf "second getSet constant: %d steps" !second_getset_steps)
    true
    (!second_getset_steps <= 4)

(* Amortized bound: total steps <= c1*J + c2*Ċ*L + c3*Σ C(G) + c4*G.
   Constants are the paper's with room for the chunk-directory overhead. *)
let test_fai_amortized_bound () =
  for seed = 0 to 9 do
    let rec_ = Metrics.create () in
    let t = F.create ~n:8 () in
    let member pid () =
      let h = F.handle t ~pid in
      for _ = 1 to 10 do
        Metrics.measure rec_ ~pid ~kind:"join" (fun () -> F.join h);
        Metrics.measure rec_ ~pid ~kind:"leave" (fun () -> F.leave h)
      done
    in
    let observer pid () =
      for _ = 1 to 8 do
        Metrics.measure rec_ ~pid ~kind:"getset" (fun () ->
            ignore (F.get_set t))
      done
    in
    let procs =
      Array.init 8 (fun pid -> if pid < 6 then member pid else observer pid)
    in
    ignore (Sim.run ~sched:(Scheduler.random ~seed ()) procs);
    let all = Metrics.samples rec_ in
    let joins = Metrics.by_kind rec_ "join"
    and leaves = Metrics.by_kind rec_ "leave"
    and getsets = Metrics.by_kind rec_ "getset" in
    let total = Metrics.total_steps all in
    let cdot = Metrics.max_point_contention all in
    let sum_cg =
      List.fold_left
        (fun acc g -> acc + Metrics.interval_contention all g)
        0 getsets
    in
    let bound =
      (4 * List.length joins)
      + (((6 * cdot) + 4) * List.length leaves)
      + (2 * sum_cg)
      + (8 * List.length getsets)
    in
    check_bool
      (Printf.sprintf "seed %d: total %d <= bound %d" seed total bound)
      true (total <= bound)
  done

(* Regression for the initialization race fixed relative to the paper's
   pseudocode (DESIGN.md §2): a getSet that runs entirely between a joiner's
   fetch&increment and its id write must not poison the skip list; the
   joiner must be visible to later getSets. *)
let test_fai_midjoin_race () =
  let t = F.create ~n:2 () in
  let sets = ref [] in
  let g1_done = ref false in
  let procs =
    [|
      (fun () ->
        let h = F.handle t ~pid:0 in
        F.join h (* F&I, then the id write *));
      (fun () ->
        sets := F.get_set t :: !sets;
        g1_done := true;
        sets := F.get_set t :: !sets);
    |]
  in
  (* phase 0: p0 takes exactly one step (its F&I) and parks;
     phase 1: p1 runs its first getSet to completion;
     phase 2: p0 completes its join;
     phase 3: p1 runs its second getSet. *)
  let pick (view : Scheduler.view) =
    let has p = Array.exists (fun q -> q = p) view.Scheduler.runnable in
    if (not !g1_done) && Sim.steps_of 0 < 1 && has 0 then Scheduler.Run 0
    else if (not !g1_done) && has 1 then Scheduler.Run 1
    else if has 0 then Scheduler.Run 0
    else Scheduler.Run 1
  in
  let res = Sim.run ~sched:{ Scheduler.name = "staged"; pick } procs in
  assert (res.outcome = Sim.Completed);
  match List.rev !sets with
  | [ first; second ] ->
    Alcotest.(check (list int)) "mid-join getSet may miss p0" [] first;
    Alcotest.(check (list int))
      "post-join getSet must see p0 (skip-list poisoned?)" [ 0 ] second
  | _ -> Alcotest.fail "expected two getSets"

(* Slots are never recycled: a second join must get a fresh slot even after
   the first is vacated (space is the paper's acknowledged open problem). *)
let test_fai_slots_not_recycled () =
  in_sim (fun () ->
      let t = F.create ~n:1 () in
      let h = F.handle t ~pid:0 in
      F.join h;
      F.leave h;
      F.join h;
      (* H has been bumped twice *)
      let module M = Mem.Sim in
      ());
  (* observable via get_set still being correct after many cycles *)
  in_sim (fun () ->
      let t = F.create ~n:1 () in
      let h = F.handle t ~pid:0 in
      for _ = 1 to 50 do
        F.join h;
        Alcotest.(check (list int)) "visible" [ 0 ] (F.get_set t);
        F.leave h;
        Alcotest.(check (list int)) "gone" [] (F.get_set t)
      done)

(* ---- splitter-tree specifics (the [3]-style adaptive active set) ---- *)

module Sp = On_sim.Splitter_tree

(* after the first join acquired a node, join/leave are O(1) *)
let test_splitter_rejoin_constant () =
  let first = ref 0 and rejoin = ref 0 and leave = ref 0 in
  ignore
    (Sim.run ~sched:(Scheduler.round_robin ())
       [|
         (fun () ->
           let t = Sp.create ~n:1 () in
           let h = Sp.handle t ~pid:0 in
           let s0 = Sim.steps_of 0 in
           Sp.join h;
           first := Sim.steps_of 0 - s0;
           Sp.leave h;
           let s1 = Sim.steps_of 0 in
           Sp.join h;
           rejoin := Sim.steps_of 0 - s1;
           let s2 = Sim.steps_of 0 in
           Sp.leave h;
           leave := Sim.steps_of 0 - s2);
       |]);
  check_bool (Printf.sprintf "first join walks: %d steps" !first) true
    (!first >= 10);
  check_int "re-join is one mark write (2 steps w/ directory)" 2 !rejoin;
  check_int "leave likewise" 2 !leave

(* under concurrent first joins, every process acquires a distinct node and
   all become visible — the splitter's at-most-one-stop guarantee *)
let test_splitter_concurrent_acquisition () =
  for seed = 0 to 29 do
    let n = 6 in
    let t = Sp.create ~n () in
    let procs =
      Array.init n (fun pid () ->
          let h = Sp.handle t ~pid in
          Sp.join h)
    in
    ignore (Sim.run ~sched:(Scheduler.random ~seed ()) procs);
    let seen = ref [] in
    ignore
      (Sim.run ~sched:(Scheduler.round_robin ())
         [| (fun () -> seen := Sp.get_set t) |]);
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: all six acquired and visible" seed)
      [ 0; 1; 2; 3; 4; 5 ] !seen
  done

(* getSet cost adapts to how many processes ever joined, not to n *)
let test_splitter_getset_adaptive () =
  let cost ~joiners =
    let steps = ref 0 in
    let t = Sp.create ~n:64 () in
    let procs =
      Array.init joiners (fun pid () ->
          let h = Sp.handle t ~pid in
          Sp.join h)
    in
    ignore (Sim.run ~sched:(Scheduler.random ~seed:9 ()) procs);
    ignore
      (Sim.run ~sched:(Scheduler.round_robin ())
         [|
           (fun () ->
             let s0 = Sim.steps_of 0 in
             ignore (Sp.get_set t);
             steps := Sim.steps_of 0 - s0);
         |]);
    !steps
  in
  let two = cost ~joiners:2 and eight = cost ~joiners:8 in
  check_bool
    (Printf.sprintf "2 joiners: %d steps; 8 joiners: %d" two eight)
    true
    (two < eight && two <= 40)

let per_impl name f =
  List.map
    (fun (iname, m) -> Alcotest.test_case (iname ^ ": " ^ name) `Quick (f m))
    impls

let () =
  Alcotest.run "activeset"
    [
      ( "sequential",
        per_impl "join/leave/getSet" test_sequential
        @ per_impl "two members" test_two_members );
      ( "concurrent",
        per_impl "random schedules" test_random_schedules
        @ per_impl "bursty schedules" test_bursty_schedules
        @ per_impl "crash tolerance" test_crash_tolerance );
      ("exhaustive", per_impl "tiny config, all schedules" test_exhaustive_tiny);
      ( "fig2-theorem2",
        [
          Alcotest.test_case "join/leave O(1)" `Quick test_fai_join_leave_constant;
          Alcotest.test_case "getSet skips vacated" `Quick
            test_fai_getset_skips_vacated;
          Alcotest.test_case "amortized bound" `Quick test_fai_amortized_bound;
          Alcotest.test_case "mid-join race (pseudocode fix)" `Quick
            test_fai_midjoin_race;
          Alcotest.test_case "slots not recycled" `Quick
            test_fai_slots_not_recycled;
        ] );
      ( "splitter-tree",
        [
          Alcotest.test_case "rejoin O(1)" `Quick test_splitter_rejoin_constant;
          Alcotest.test_case "concurrent acquisition distinct" `Quick
            test_splitter_concurrent_acquisition;
          Alcotest.test_case "getSet adaptive" `Quick
            test_splitter_getset_adaptive;
        ] );
    ]
