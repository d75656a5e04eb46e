(* Tests of the MVCC snapshot-isolation layer (lib/txn) and its oracle
   (lib/history/si_check.ml).  Covers the sequential transaction semantics
   (snapshot reads, own-write shadowing, read-only commits that never
   abort), first-committer-wins conflict detection vs the deliberately
   unsound last-writer-wins mode, the SI oracle on hand-crafted
   observation lists, crash–restart chaos campaigns with descriptor
   roll-forward, the typed transactional Kv facade's edge cases, and the
   committed E20 witness schedule, which must drive last-writer-wins to a
   lost update while first-committer-wins survives the very same
   schedule. *)

open Psnap
open Psnap_harness

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- sequential semantics (atomic memory, no simulator) ---- *)

module T = Mc_txn_fig3

let test_sequential_basics () =
  let t = T.create ~n:2 [| 10; 20; 30; 40 |] in
  let h0 = T.handle t ~pid:0 in
  let x = T.begin_ h0 in
  check_int "initial read" 20 (T.read x 1);
  T.write x 1 21;
  check_int "own write shadows" 21 (T.read x 1);
  check_int "other components untouched" 30 (T.read x 2);
  (match T.commit x with
  | Ok cts -> check_bool "rw commit has positive cts" true (cts > 0)
  | Error _ -> Alcotest.fail "uncontended commit aborted");
  let y = T.begin_ h0 in
  check_int "later txn sees the commit" 21 (T.read y 1);
  T.abort y;
  let z = T.begin_ h0 in
  check_bool "abort published nothing" true (T.read z 1 = 21);
  ignore (T.commit z)

let test_read_only_never_validates () =
  let t = T.create ~n:2 [| 1; 2; 3; 4 |] in
  let h0 = T.handle t ~pid:0 and h1 = T.handle t ~pid:1 in
  let ro = T.begin_ h1 in
  (* a concurrent writer commits mid-transaction *)
  let w = T.begin_ h0 in
  T.write w 0 100;
  T.write w 3 400;
  check_bool "writer committed" true (Result.is_ok (T.commit w));
  (* the read-only txn keeps its begin snapshot and commits unconditionally *)
  check_bool "ro read ignores later commit" true
    (T.read_many ro [| 0; 3 |] = [| 1; 4 |]);
  (match T.commit ro with
  | Ok bts -> check_int "ro commit returns begin_ts" (T.begin_ts ro) bts
  | Error _ -> Alcotest.fail "read-only commit aborted")

let test_fcw_conflict_vs_lww () =
  (* the canonical lost-update race, replayed sequentially: both read
     component 0, both write it; under fcw the second committer aborts,
     under lww it silently overwrites and the oracle objects *)
  let race mode =
    let t = T.create ~mode ~n:2 [| 5; 6 |] in
    let x0 = T.begin_ (T.handle t ~pid:0) in
    let x1 = T.begin_ (T.handle t ~pid:1) in
    ignore (T.read x0 0);
    ignore (T.read x1 0);
    T.write x0 0 50;
    T.write x1 0 51;
    let r0 = T.commit x0 in
    let r1 = T.commit x1 in
    let obs = List.filter_map T.observation [ x0; x1 ] in
    (r0, r1, Si_check.check ~init:[| 5; 6 |] obs)
  in
  (match race Txn.Fcw with
  | Ok _, Error (Txn.Conflict 0), [] -> ()
  | Ok _, Error (Txn.Conflict c), _ ->
    Alcotest.failf "conflict on component %d, expected 0" c
  | _, _, viols ->
    Alcotest.failf "fcw: expected first Ok / second Conflict, %d violations"
      (List.length viols));
  match race Txn.Lww with
  | Ok _, Ok _, viols ->
    check_bool "lww overwrite flagged as lost update" true
      (List.exists
         (function Si_check.Lost_update _ -> true | _ -> false)
         viols)
  | _ -> Alcotest.fail "lww: both commits should succeed"

let test_finished_txn_rejected () =
  let t = T.create ~n:1 [| 0 |] in
  let h = T.handle t ~pid:0 in
  let x = T.begin_ h in
  ignore (T.commit x);
  check_bool "read after commit raises" true
    (match T.read x 0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "commit after commit raises" true
    (match T.commit x with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "resume on an idle handle is a no-op" true (T.resume h = None)

(* ---- the SI oracle on hand-crafted observations ---- *)

let obs ?(excluded = []) ?(committed = true) ?commit_ts ?(reads = [])
    ?(writes = []) ~txid ~begin_ts () =
  {
    Si_check.txid;
    pid = txid;
    begin_ts;
    excluded;
    committed;
    commit_ts;
    reads;
    writes;
  }

let kind = function
  | Si_check.Stale_read _ -> "stale"
  | Si_check.Lost_update _ -> "lost"
  | Si_check.Bad_timestamps _ -> "ts"

let test_oracle_clean_serial () =
  (* t1 writes, t2 (begun after) reads the new value: no violations *)
  let viols =
    Si_check.check ~init:[| 7 |]
      [
        obs ~txid:1 ~begin_ts:0 ~commit_ts:1 ~reads:[ (0, 7) ]
          ~writes:[ (0, 70) ] ();
        obs ~txid:2 ~begin_ts:1 ~reads:[ (0, 70) ] ();
      ]
  in
  check_int "serial history clean" 0 (List.length viols)

let test_oracle_stale_read () =
  (* t2's begin snapshot includes t1's commit, yet it reports the initial
     value: a stale read naming t1 as the writer it missed *)
  let viols =
    Si_check.check ~init:[| 7 |]
      [
        obs ~txid:1 ~begin_ts:0 ~commit_ts:1 ~writes:[ (0, 70) ] ();
        obs ~txid:2 ~begin_ts:1 ~reads:[ (0, 7) ] ();
      ]
  in
  check_bool "stale read detected" true
    (List.exists (fun v -> kind v = "stale") viols)

let test_oracle_excluded_writer_ok () =
  (* same timestamps, but t2 declared t1 in flight at begin: reading the
     initial value is exactly right *)
  let viols =
    Si_check.check ~init:[| 7 |]
      [
        obs ~txid:1 ~begin_ts:0 ~commit_ts:1 ~writes:[ (0, 70) ] ();
        obs ~txid:2 ~begin_ts:1 ~excluded:[ 1 ] ~reads:[ (0, 7) ] ();
      ]
  in
  check_int "excluded writer invisible by design" 0 (List.length viols)

let test_oracle_lost_update () =
  (* two committers whose windows overlap write the same component and
     both commit: the second one blindly overwrites the first *)
  let viols =
    Si_check.check ~init:[| 7 |]
      [
        obs ~txid:1 ~begin_ts:0 ~commit_ts:1 ~writes:[ (0, 70) ] ();
        obs ~txid:2 ~begin_ts:0 ~commit_ts:2 ~writes:[ (0, 71) ] ();
      ]
  in
  check_bool "lost update detected" true
    (List.exists (fun v -> kind v = "lost") viols)

let test_oracle_bad_timestamps () =
  let bad l = List.exists (fun v -> kind v = "ts") (Si_check.check ~init:[| 7 |] l) in
  check_bool "committed rw without cts" true
    (bad [ obs ~txid:1 ~begin_ts:0 ~writes:[ (0, 70) ] () ]);
  check_bool "cts not after begin" true
    (bad [ obs ~txid:1 ~begin_ts:3 ~commit_ts:3 ~writes:[ (0, 70) ] () ]);
  check_bool "duplicate cts" true
    (bad
       [
         obs ~txid:1 ~begin_ts:0 ~commit_ts:2 ~writes:[ (0, 70) ] ();
         obs ~txid:2 ~begin_ts:0 ~commit_ts:2 ~writes:[ (0, 71) ] ();
       ])

(* ---- chaos campaigns in the simulator ---- *)

(* The transaction campaign's scenario: updaters run read-modify-write
   transactions on overlapping components, scanners run read-only
   transactions over a declared window; every txn begun is harvested
   after the run, resume observations fill in crashed commits. *)
let txn_workload ?(mode = Txn.Fcw) ~m ~r ~updaters ~updates ~scanners ~scans
    ~sched () =
  let x =
    Campaign.execute
      (Scenario.txn ~mode { Scenario.m; r; updaters; updates; scanners; scans })
      ~sched
  in
  (x.Campaign.result, x.Campaign.violations)

let test_fcw_chaos_si_clean () =
  (* crash–restart chaos over 20 seeds: every execution must pass the SI
     oracle, and the campaign must actually exercise crashes and at least
     one descriptor roll-forward across all seeds *)
  Metrics.(reset Txn.group);
  let crashes = ref 0 in
  for seed = 0 to 19 do
    let sched =
      Scheduler.chaos ~seed ~inner:(Scheduler.random ~seed ()) ()
    in
    let res, viols =
      txn_workload ~m:8 ~r:3 ~updaters:3 ~updates:8 ~scanners:2 ~scans:4
        ~sched ()
    in
    crashes := !crashes + List.length res.Sim.crashed;
    if viols <> [] then
      Alcotest.failf "seed %d: %d SI violations under fcw" seed
        (List.length viols)
  done;
  check_bool "chaos campaign crashed processes" true (!crashes > 0);
  check_bool "campaign committed transactions" true
    (Metrics.(get Txn.rw_commits) > 0)

let test_starved_committer_bounded_abort () =
  (* starving the scanners turns writers loose on each other; conflicts
     and busy aborts may pile up but SI must hold, and every commit call
     must terminate (the run finishing is the no-livelock claim) *)
  for seed = 0 to 9 do
    let sched = Scheduler.starve ~victims:[ 3; 4 ] ~seed () in
    let _, viols =
      txn_workload ~m:4 ~r:2 ~updaters:3 ~updates:10 ~scanners:2 ~scans:3
        ~sched ()
    in
    check_int (Printf.sprintf "seed %d clean" seed) 0 (List.length viols)
  done

let test_lww_chaos_finds_lost_updates () =
  (* the unsound mode must be caught by the oracle somewhere across the
     seeds — this is the oracle's power test, mirroring the E20 campaign *)
  let caught = ref false in
  for seed = 0 to 19 do
    let sched = Scheduler.random ~seed () in
    let _, viols =
      txn_workload ~mode:Txn.Lww ~m:4 ~r:2 ~updaters:2 ~updates:3
        ~scanners:1 ~scans:2 ~sched ()
    in
    if
      List.exists
        (function Si_check.Lost_update _ -> true | _ -> false)
        viols
    then caught := true
  done;
  check_bool "oracle catches last-writer-wins" true !caught

(* ---- the committed E20 witness ---- *)

let e20_witness =
  if Sys.file_exists "schedules/e20-txn-lww.sched" then
    "schedules/e20-txn-lww.sched"
  else "../schedules/e20-txn-lww.sched"

let replay_witness ~mode =
  let decisions = Shrink.load e20_witness in
  check_bool "witness committed and shrunk" true
    (List.length decisions <= 40);
  let sched =
    Scheduler.replay_decisions ~lenient:true
      ~fallback:(Scheduler.round_robin ()) decisions
  in
  let _, viols =
    txn_workload ~mode ~m:4 ~r:2 ~updaters:2 ~updates:3 ~scanners:1 ~scans:2
      ~sched ()
  in
  viols

let test_e20_witness_kills_lww () =
  let viols = replay_witness ~mode:Txn.Lww in
  check_bool "last-writer-wins loses an update" true
    (List.exists
       (function Si_check.Lost_update _ -> true | _ -> false)
       viols)

let test_e20_witness_clean_on_fcw () =
  let viols = replay_witness ~mode:Txn.Fcw in
  check_bool "first-committer-wins survives the same schedule" true
    (viols = [])

(* ---- the transactional Kv facade ---- *)

module Tkv = Psnap_apps.Kv.Make_txn (Mc_txn_fig3)

let test_kv_txn_basics_and_edges () =
  let t = Tkv.create ~n:2 [ ("aapl", 100); ("goog", 200); ("msft", 300) ] in
  let h = Tkv.handle t ~pid:0 in
  let x = Tkv.begin_ h in
  check_int "get" 200 (Tkv.get x "goog");
  Tkv.set x "goog" 250;
  Alcotest.(check (list (pair string int)))
    "get_many (duplicates align, own write shadows)"
    [ ("goog", 250); ("aapl", 100); ("goog", 250) ]
    (Tkv.get_many x [ "goog"; "aapl"; "goog" ]);
  check_bool "unknown key raises" true
    (match Tkv.get x "tsla" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "unknown key raises on set" true
    (match Tkv.set x "tsla" 1 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "commit ok" true (Result.is_ok (Tkv.commit x));
  let y = Tkv.begin_ h in
  Alcotest.(check (list (pair string int)))
    "get_all sees the commit"
    [ ("aapl", 100); ("goog", 250); ("msft", 300) ]
    (Tkv.get_all y);
  Tkv.abort y;
  check_bool "mem" true (Tkv.mem t "aapl");
  check_bool "keys in creation order" true
    (Tkv.keys t = [ "aapl"; "goog"; "msft" ]);
  check_bool "duplicate key rejected" true
    (match Tkv.create ~n:1 [ ("a", 1); ("a", 2) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_kv_txn_conflict () =
  let t = Tkv.create ~n:2 [ ("x", 0) ] in
  let a = Tkv.begin_ (Tkv.handle t ~pid:0) in
  let b = Tkv.begin_ (Tkv.handle t ~pid:1) in
  ignore (Tkv.get a "x");
  ignore (Tkv.get b "x");
  Tkv.set a "x" 1;
  Tkv.set b "x" 2;
  check_bool "first committer wins" true (Result.is_ok (Tkv.commit a));
  check_bool "second aborts" true (Result.is_error (Tkv.commit b));
  check_bool "observations harvested" true
    (match (Tkv.observation a, Tkv.observation b) with
    | Some oa, Some ob -> oa.Si_check.committed && not ob.Si_check.committed
    | _ -> false)

let () =
  Alcotest.run "txn"
    [
      ( "semantics",
        [
          Alcotest.test_case "sequential basics" `Quick test_sequential_basics;
          Alcotest.test_case "read-only never validates" `Quick
            test_read_only_never_validates;
          Alcotest.test_case "fcw conflict vs lww" `Quick
            test_fcw_conflict_vs_lww;
          Alcotest.test_case "finished txn rejected" `Quick
            test_finished_txn_rejected;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean serial history" `Quick
            test_oracle_clean_serial;
          Alcotest.test_case "stale read" `Quick test_oracle_stale_read;
          Alcotest.test_case "excluded writer ok" `Quick
            test_oracle_excluded_writer_ok;
          Alcotest.test_case "lost update" `Quick test_oracle_lost_update;
          Alcotest.test_case "bad timestamps" `Quick
            test_oracle_bad_timestamps;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "fcw SI-clean under chaos (20 seeds)" `Quick
            test_fcw_chaos_si_clean;
          Alcotest.test_case "starved committers stay bounded (10 seeds)"
            `Quick test_starved_committer_bounded_abort;
          Alcotest.test_case "oracle catches lww (20 seeds)" `Quick
            test_lww_chaos_finds_lost_updates;
        ] );
      ( "e20",
        [
          Alcotest.test_case "witness kills lww" `Quick
            test_e20_witness_kills_lww;
          Alcotest.test_case "witness clean on fcw" `Quick
            test_e20_witness_clean_on_fcw;
        ] );
      ( "kv",
        [
          Alcotest.test_case "facade basics and edge cases" `Quick
            test_kv_txn_basics_and_edges;
          Alcotest.test_case "facade conflict" `Quick test_kv_txn_conflict;
        ] );
    ]
