(* Tests of the application layer built on the public snapshot API:
   commit-adopt's three guarantees under many schedules, and the
   f-array-backed active set. *)

open Psnap
module CA = Psnap_apps.Commit_adopt.Make (Sim_fig3)
module CA_afek = Psnap_apps.Commit_adopt.Make (On_sim.Afek)

let check_bool = Alcotest.(check bool)

(* the same suite runs against commit-adopt over two snapshot backends *)
module Suite (C : sig
  type 'v t

  type 'v handle

  type 'v outcome = Commit of 'v | Adopt of 'v | Free of 'v

  val create : n:int -> unit -> 'v t

  val handle : 'v t -> pid:int -> 'v handle

  val propose : 'v handle -> pid:int -> 'v -> 'v outcome
end) =
struct
  let run ~sched proposals =
    let n = Array.length proposals in
    let t = C.create ~n () in
    let outcomes = Array.make n None in
    let procs =
      Array.init n (fun pid () ->
          let h = C.handle t ~pid in
          outcomes.(pid) <- Some (C.propose h ~pid proposals.(pid)))
    in
    ignore (Sim.run ~sched procs);
    Array.map Option.get outcomes

  let value = function C.Commit v | C.Adopt v | C.Free v -> v

  let test_solo () =
    let out = run ~sched:(Scheduler.round_robin ()) [| 42 |] in
    check_bool "solo commits own value" true (out.(0) = C.Commit 42)

  let test_convergence () =
    (* unanimous proposals commit, under every scheduler family *)
    for seed = 0 to 19 do
      List.iter
        (fun sched ->
          let out = run ~sched [| 7; 7; 7; 7 |] in
          Array.iter
            (fun o ->
              check_bool "unanimous proposals all commit" true (o = C.Commit 7))
            out)
        [
          Scheduler.random ~seed ();
          Scheduler.bursty ~seed ();
          Scheduler.pct ~seed ~expected_steps:300 ();
        ]
    done

  let test_agreement_and_validity () =
    for seed = 0 to 59 do
      let proposals = [| 0; 1; 0; 1 |] in
      let out = run ~sched:(Scheduler.random ~seed ()) proposals in
      (* validity *)
      Array.iter
        (fun o ->
          check_bool "outcome value was proposed" true
            (Array.exists (fun p -> p = value o) proposals))
        out;
      (* agreement: a commit forces everyone onto its value, and no Free *)
      Array.iter
        (function
          | C.Commit w ->
            Array.iter
              (fun o ->
                check_bool "all carry the committed value" true (value o = w);
                check_bool "no Free next to a commit" true
                  (match o with C.Free _ -> false | _ -> true))
              out
          | C.Adopt _ | C.Free _ -> ())
        out;
      (* all commits agree *)
      let commits =
        Array.to_list out
        |> List.filter_map (function C.Commit w -> Some w | _ -> None)
      in
      match commits with
      | [] -> ()
      | w :: rest ->
        check_bool "commits agree" true (List.for_all (fun x -> x = w) rest)
    done

  let test_repeated_rounds_safe () =
    (* chaining instances: once a round commits, later rounds are unanimous *)
    for seed = 0 to 9 do
      let n = 3 in
      let rounds = 6 in
      let instances = Array.init rounds (fun _ -> C.create ~n ()) in
      let final = Array.make n None in
      let procs =
        Array.init n (fun pid () ->
            let v = ref pid in
            (* distinct proposals *)
            let decided = ref None in
            for r = 0 to rounds - 1 do
              let h = C.handle instances.(r) ~pid in
              match C.propose h ~pid !v with
              | C.Commit w ->
                if !decided = None then decided := Some w;
                v := w
              | C.Adopt w -> v := w
              | C.Free w -> v := w
            done;
            final.(pid) <- Some (!decided, !v))
      in
      ignore (Sim.run ~sched:(Scheduler.random ~seed ()) procs);
      (* any two decisions agree; deciders' values stick *)
      let decisions =
        Array.to_list final |> List.filter_map (fun x -> fst (Option.get x))
      in
      match decisions with
      | [] -> ()
      | w :: rest ->
        check_bool "chained decisions agree" true
          (List.for_all (fun x -> x = w) rest);
        Array.iter
          (fun x ->
            check_bool "everyone converged to the decision" true
              (snd (Option.get x) = w))
          final
    done

  let cases prefix =
    [
      Alcotest.test_case (prefix ^ ": solo") `Quick test_solo;
      Alcotest.test_case (prefix ^ ": convergence") `Quick test_convergence;
      Alcotest.test_case (prefix ^ ": agreement+validity") `Quick
        test_agreement_and_validity;
      Alcotest.test_case (prefix ^ ": chained rounds") `Quick
        test_repeated_rounds_safe;
    ]
end

module Suite_fig3 = Suite (CA)
module Suite_afek = Suite (CA_afek)

(* ---- the f-array active set joins the generic validity matrix ---- *)

module FA = Psnap.On_sim.Farray_aset

let test_farray_aset_validity () =
  for seed = 0 to 29 do
    let hist = History.create ~now:Sim.mark () in
    let t = FA.create ~n:4 () in
    let member pid () =
      let h = FA.handle t ~pid in
      for _ = 1 to 5 do
        ignore
          (History.record hist ~pid Activeset_check.Join (fun () ->
               FA.join h;
               Activeset_check.Ack));
        ignore
          (History.record hist ~pid Activeset_check.Leave (fun () ->
               FA.leave h;
               Activeset_check.Ack))
      done
    in
    let observer pid () =
      for _ = 1 to 8 do
        ignore
          (History.record hist ~pid Activeset_check.Get_set (fun () ->
               Activeset_check.Set (FA.get_set t)))
      done
    in
    ignore
      (Sim.run ~sched:(Scheduler.random ~seed ())
         [| member 0; member 1; observer 2; observer 3 |]);
    match Activeset_check.check (History.entries hist) with
    | [] -> ()
    | v :: _ -> Alcotest.failf "violation: %a" Activeset_check.pp_violation v
  done

let test_farray_aset_costs () =
  let getset_steps = ref 0 and join_steps = ref 0 in
  ignore
    (Sim.run ~sched:(Scheduler.round_robin ())
       [|
         (fun () ->
           let t = FA.create ~n:64 () in
           let h = FA.handle t ~pid:0 in
           let s0 = Sim.steps_of 0 in
           FA.join h;
           join_steps := Sim.steps_of 0 - s0;
           let s1 = Sim.steps_of 0 in
           ignore (FA.get_set t);
           getset_steps := Sim.steps_of 0 - s1);
       |]);
  Alcotest.(check int) "getSet = 1 step" 1 !getset_steps;
  (* leaf write + 2 refreshes x 4 steps x log2 64 levels *)
  Alcotest.(check bool)
    (Printf.sprintf "join O(log n): %d" !join_steps)
    true
    (!join_steps <= 1 + (6 * 8))

(* ---- timestamps ---- *)

module TS = Psnap_apps.Timestamps.Make (Sim_fig3)

let test_timestamps_sequential () =
  let out = ref [] in
  ignore
    (Sim.run ~sched:(Scheduler.round_robin ())
       [|
         (fun () ->
           let t = TS.create ~n:1 () in
           let h = TS.handle t ~pid:0 in
           let a = TS.next h in
           let b = TS.next h in
           let c = TS.next h in
           out := [ a; b; c ];
           Alcotest.(check int) "current" 3 (TS.current h));
       |]);
  match !out with
  | [ a; b; c ] ->
    check_bool "strictly increasing" true
      (TS.compare_label a b < 0 && TS.compare_label b c < 0)
  | _ -> Alcotest.fail "three labels expected"

let test_timestamps_monotone_concurrent () =
  for seed = 0 to 29 do
    let t = TS.create ~n:4 () in
    let labels = ref [] in
    (* (label, inv, resp) triples, appended from each fiber *)
    let proc pid () =
      let h = TS.handle t ~pid in
      for _ = 1 to 6 do
        let inv = Sim.mark () in
        let l = TS.next h in
        let resp = Sim.mark () in
        labels := (l, inv, resp) :: !labels
      done
    in
    ignore
      (Sim.run ~sched:(Scheduler.random ~seed ())
         (Array.init 4 (fun pid -> proc pid)));
    let all = !labels in
    (* distinct *)
    let sorted = List.sort (fun (a, _, _) (b, _, _) -> TS.compare_label a b) all in
    let rec distinct = function
      | (a, _, _) :: ((b, _, _) :: _ as rest) ->
        TS.compare_label a b < 0 && distinct rest
      | _ -> true
    in
    check_bool "labels distinct" true (distinct sorted);
    (* real-time order respected *)
    List.iter
      (fun (la, _, ra) ->
        List.iter
          (fun (lb, ib, _) ->
            if ra < ib then
              check_bool "completed-before implies smaller label" true
                (TS.compare_label la lb < 0))
          all)
      all
  done

(* ---- combining counter ---- *)

module Counter = Psnap_apps.Combining_counter.Make (Sim_fig3)

let test_counter_sequential () =
  ignore
    (Sim.run ~sched:(Scheduler.round_robin ())
       [|
         (fun () ->
           let t = Counter.create ~n:1 ~counters:2 () in
           let h = Counter.handle t ~pid:0 in
           Alcotest.(check int) "zero" 0 (Counter.read h ~counter:0);
           Counter.incr h ~counter:0;
           Counter.incr h ~counter:0;
           Counter.add h ~counter:1 5;
           Alcotest.(check int) "c0" 2 (Counter.read h ~counter:0);
           Alcotest.(check int) "c1" 5 (Counter.read h ~counter:1);
           Alcotest.(check (list (pair int int)))
             "read_many"
             [ (1, 5); (0, 2) ]
             (Counter.read_many h [ 1; 0 ]));
       |])

let test_counter_concurrent_exact () =
  for seed = 0 to 19 do
    let n = 4 in
    let t = Counter.create ~n ~counters:1 () in
    let per_proc = 25 in
    let procs =
      Array.init n (fun pid () ->
          let h = Counter.handle t ~pid in
          for _ = 1 to per_proc do
            Counter.incr h ~counter:0
          done)
    in
    ignore (Sim.run ~sched:(Scheduler.random ~seed ()) procs);
    ignore
      (Sim.run ~sched:(Scheduler.round_robin ())
         [|
           (fun () ->
             let h = Counter.handle t ~pid:0 in
             Alcotest.(check int) "all increments counted" (n * per_proc)
               (Counter.read h ~counter:0));
         |])
  done

let test_counter_cross_consistency () =
  (* each worker bumps counter 0 then counter 1 each round, so at every
     instant 0 <= sum0 - sum1 <= workers; an atomic read_many must see
     that, always *)
  for seed = 0 to 19 do
    let workers = 3 in
    let t = Counter.create ~n:(workers + 1) ~counters:2 () in
    let worker pid () =
      let h = Counter.handle t ~pid in
      for _ = 1 to 20 do
        Counter.incr h ~counter:0;
        Counter.incr h ~counter:1
      done
    in
    let ok = ref true in
    let reader () =
      let h = Counter.handle t ~pid:workers in
      for _ = 1 to 15 do
        match Counter.read_many h [ 0; 1 ] with
        | [ (0, s0); (1, s1) ] ->
          if not (s0 >= s1 && s0 - s1 <= workers) then ok := false
        | _ -> ok := false
      done
    in
    ignore
      (Sim.run
         ~sched:(Scheduler.starve ~victims:[ workers ] ~seed ())
         (Array.init (workers + 1) (fun pid ->
              if pid < workers then worker pid else reader)));
    check_bool "cross-counter reads consistent" true !ok
  done

(* ---- kv ---- *)

module Kv = Psnap_apps.Kv.Make (Sim_fig3)

let test_kv_basics () =
  ignore
    (Sim.run ~sched:(Scheduler.round_robin ())
       [|
         (fun () ->
           let t =
             Kv.create ~n:1 [ ("aapl", 100); ("goog", 200); ("msft", 300) ]
           in
           let h = Kv.handle t ~pid:0 in
           Alcotest.(check int) "get" 200 (Kv.get h "goog");
           Kv.set h "goog" 250;
           Alcotest.(check (list (pair string int)))
             "get_many (duplicates ok)"
             [ ("goog", 250); ("aapl", 100); ("goog", 250) ]
             (Kv.get_many h [ "goog"; "aapl"; "goog" ]);
           Alcotest.(check (list (pair string int)))
             "get_all"
             [ ("aapl", 100); ("goog", 250); ("msft", 300) ]
             (Kv.get_all h);
           check_bool "mem" true (Kv.mem t "aapl");
           check_bool "unknown key raises" true
             (match Kv.get h "tsla" with
             | _ -> false
             | exception Invalid_argument _ -> true));
       |]);
  check_bool "duplicate key rejected" true
    (match Kv.create ~n:1 [ ("a", 1); ("a", 2) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_kv_atomic_multiget () =
  (* writer keeps "x" = "y" (one generation apart); atomic get_many never
     observes a gap larger than one update *)
  for seed = 0 to 19 do
    let t = Kv.create ~n:2 [ ("x", 0); ("y", 0); ("pad", -1) ] in
    let writer () =
      let h = Kv.handle t ~pid:0 in
      for g = 1 to 50 do
        Kv.set h "x" g;
        Kv.set h "y" g
      done
    in
    let ok = ref true in
    let reader () =
      let h = Kv.handle t ~pid:1 in
      for _ = 1 to 20 do
        match Kv.get_many h [ "x"; "y" ] with
        | [ (_, x); (_, y) ] -> if not (x = y || x = y + 1) then ok := false
        | _ -> ok := false
      done
    in
    ignore
      (Sim.run ~sched:(Scheduler.starve ~victims:[ 1 ] ~seed ())
         [| writer; reader |]);
    check_bool "multiget consistent" true !ok
  done

(* ---- lattice agreement ---- *)

module LA = Psnap_apps.Lattice_agreement.Make (Sim_fig3)
module IntSet = Set.Make (Int)

let test_lattice_agreement () =
  (* sets under union; proposals {pid}; decisions must be comparable chains
     containing one's own proposal — under many schedules *)
  for seed = 0 to 39 do
    let n = 5 in
    let t = LA.create ~n ~bottom:IntSet.empty ~join:IntSet.union () in
    let decisions = Array.make n IntSet.empty in
    let procs =
      Array.init n (fun pid () ->
          let h = LA.handle t ~pid in
          decisions.(pid) <- LA.propose h (IntSet.singleton pid))
    in
    ignore (Sim.run ~sched:(Scheduler.random ~seed ()) procs);
    let all = Array.init n (fun q -> q) |> Array.to_list in
    (* validity *)
    Array.iteri
      (fun pid d ->
        check_bool "own proposal included" true (IntSet.mem pid d);
        check_bool "only proposals included" true
          (IntSet.for_all (fun x -> List.mem x all) d))
      decisions;
    (* comparability: decisions form a chain under inclusion *)
    Array.iteri
      (fun i di ->
        Array.iteri
          (fun j dj ->
            if i < j then
              check_bool "decisions comparable" true
                (IntSet.subset di dj || IntSet.subset dj di))
          decisions)
      decisions
  done

let test_lattice_agreement_vectors () =
  (* pointwise-max vectors: same properties, different lattice *)
  let join a b = Array.map2 max a b in
  let leq a b = Array.for_all2 ( <= ) a b in
  for seed = 0 to 19 do
    let n = 4 in
    let t = LA.create ~n ~bottom:[| 0; 0; 0 |] ~join () in
    let proposals =
      [| [| 3; 0; 0 |]; [| 0; 5; 0 |]; [| 0; 0; 7 |]; [| 1; 1; 1 |] |]
    in
    let decisions = Array.make n [||] in
    let procs =
      Array.init n (fun pid () ->
          let h = LA.handle t ~pid in
          decisions.(pid) <- LA.propose h proposals.(pid))
    in
    ignore (Sim.run ~sched:(Scheduler.bursty ~seed ()) procs);
    let top = Array.fold_left join [| 0; 0; 0 |] proposals in
    Array.iteri
      (fun pid d ->
        check_bool "above own proposal" true (leq proposals.(pid) d);
        check_bool "below the join of all" true (leq d top))
      decisions;
    Array.iter
      (fun di ->
        Array.iter
          (fun dj -> check_bool "chain" true (leq di dj || leq dj di))
          decisions)
      decisions
  done

let () =
  Alcotest.run "apps"
    [
      ("commit-adopt/fig3", Suite_fig3.cases "fig3");
      ("commit-adopt/afek", Suite_afek.cases "afek");
      ( "farray-activeset",
        [
          Alcotest.test_case "validity" `Quick test_farray_aset_validity;
          Alcotest.test_case "costs" `Quick test_farray_aset_costs;
        ] );
      ( "timestamps",
        [
          Alcotest.test_case "sequential" `Quick test_timestamps_sequential;
          Alcotest.test_case "monotone under concurrency" `Quick
            test_timestamps_monotone_concurrent;
        ] );
      ( "counter",
        [
          Alcotest.test_case "sequential" `Quick test_counter_sequential;
          Alcotest.test_case "concurrent exact" `Quick
            test_counter_concurrent_exact;
          Alcotest.test_case "cross-counter consistency" `Quick
            test_counter_cross_consistency;
        ] );
      ( "kv",
        [
          Alcotest.test_case "basics" `Quick test_kv_basics;
          Alcotest.test_case "atomic multiget" `Quick test_kv_atomic_multiget;
        ] );
      ( "lattice-agreement",
        [
          Alcotest.test_case "sets under union" `Quick test_lattice_agreement;
          Alcotest.test_case "vectors under max" `Quick
            test_lattice_agreement_vectors;
        ] );
    ]
