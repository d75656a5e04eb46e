(* Tests of the simulation kernel: scheduling, step accounting, crash
   injection, determinism, and the Mem_sim primitives. *)

open Psnap
module M = Mem.Sim

(* The whole suite runs with the escape sanitizer on: every simulated access
   must happen at a scheduling point of the current run. *)
let () = M.set_strict true

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* ---- step accounting ---- *)

let test_steps_counted () =
  let log = ref [] in
  let procs =
    [|
      (fun () ->
        let r = M.make 0 in
        for _ = 1 to 5 do
          log := M.read r :: !log
        done);
    |]
  in
  let res = Sim.run ~sched:(Scheduler.round_robin ()) procs in
  check_int "five reads = five steps" 5 res.clock;
  check_int "per-pid steps" 5 res.steps.(0)

let test_each_primitive_is_one_step () =
  let procs =
    [|
      (fun () ->
        let r = M.make 0 in
        let c = M.make 7 in
        M.write r 1;
        ignore (M.read r);
        ignore (M.cas r ~expected:1 ~desired:2);
        ignore (M.fetch_and_add c 3));
    |]
  in
  let res = Sim.run ~sched:(Scheduler.round_robin ()) procs in
  check_int "write+read+cas+faa = 4 steps" 4 res.clock

let test_allocation_is_free () =
  let procs = [| (fun () -> ignore (Array.init 100 (fun i -> M.make i))) |] in
  let res = Sim.run ~sched:(Scheduler.round_robin ()) procs in
  check_int "no steps" 0 res.clock

(* ---- scheduling ---- *)

let test_round_robin_alternates () =
  let r = M.make [] in
  let writer pid () =
    for _ = 1 to 3 do
      ignore (M.read r);
      M.write r (pid :: M.read r)
    done
  in
  let res =
    Sim.run ~sched:(Scheduler.round_robin ()) [| writer 0; writer 1 |]
  in
  check_int "total steps" 18 res.clock;
  check_int "p0 steps" 9 res.steps.(0);
  check_int "p1 steps" 9 res.steps.(1)

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

let test_random_deterministic () =
  let program () =
    let r = M.make 0 in
    Array.init 3 (fun pid () ->
        for k = 1 to 10 do
          if k mod 2 = 0 then M.write r (pid + k) else ignore (M.read r)
        done)
  in
  let run seed =
    Sim.run ~record_trace:true ~sched:(Scheduler.random ~seed ()) (program ())
  in
  let a = run 42 and b = run 42 in
  check_bool "same trace for same seed" true
    (trace_signature a = trace_signature b);
  let c = run 43 in
  check_bool "different seed, different trace" true
    (trace_signature a <> trace_signature c)

let test_pct_deterministic_and_complete () =
  let program () =
    let r = M.make 0 in
    Array.init 4 (fun pid () ->
        for k = 1 to 20 do
          if (k + pid) mod 3 = 0 then M.write r k else ignore (M.read r)
        done)
  in
  let run seed =
    Sim.run ~record_trace:true
      ~sched:(Scheduler.pct ~seed ~depth:3 ~expected_steps:80 ())
      (program ())
  in
  let a = run 7 and b = run 7 in
  check_bool "pct completes" true (a.outcome = Sim.Completed);
  check_int "all steps executed" 80 a.clock;
  check_bool "same seed, same schedule" true
    (trace_signature a = trace_signature b);
  (* across seeds, schedules differ *)
  let c = run 8 in
  check_bool "different seed, different schedule" true
    (trace_signature a <> trace_signature c)

let test_pct_priorities_starve_low () =
  (* with no change points (depth 1), pct runs one process to completion
     before the next — strict priority order *)
  let order = ref [] in
  let r = M.make 0 in
  let procs =
    Array.init 3 (fun pid () ->
        ignore (M.read r);
        ignore (M.read r);
        order := pid :: !order)
  in
  ignore (Sim.run ~sched:(Scheduler.pct ~seed:1 ~depth:1 ()) procs);
  (* each process's two steps are consecutive: completion order is a
     permutation, with no interleaving *)
  Alcotest.(check int) "all finished" 3 (List.length !order)

let test_replay_forces_order () =
  let order = ref [] in
  let r = M.make 0 in
  let procs =
    Array.init 2 (fun pid () ->
        ignore (M.read r);
        order := pid :: !order)
  in
  let res = Sim.run ~sched:(Scheduler.replay [ 1; 0 ]) procs in
  check_bool "completed" true (res.outcome = Sim.Completed);
  Alcotest.(check (list int)) "p1 then p0" [ 0; 1 ] !order

let test_replay_stops_when_exhausted () =
  let r = M.make 0 in
  let procs =
    Array.init 2 (fun _ () ->
        ignore (M.read r);
        ignore (M.read r))
  in
  let res = Sim.run ~sched:(Scheduler.replay [ 0 ]) procs in
  match res.outcome with
  | Sim.Stopped runnable ->
    Alcotest.(check (list int))
      "both still runnable" [ 0; 1 ] (Array.to_list runnable)
  | Sim.Completed -> Alcotest.fail "expected Stopped"

(* ---- crashes ---- *)

let test_crash_halts_process () =
  let r = M.make 0 in
  let done0 = ref false and done1 = ref false in
  let spin flag () =
    for _ = 1 to 10 do
      ignore (M.read r)
    done;
    flag := true
  in
  let sched =
    Scheduler.with_crash ~pid:0 ~at_clock:3 (Scheduler.round_robin ())
  in
  let res = Sim.run ~sched [| spin done0; spin done1 |] in
  check_bool "victim did not finish" false !done0;
  check_bool "survivor finished" true !done1;
  Alcotest.(check (list int)) "crash recorded" [ 0 ] res.crashed

let test_crash_drops_pending_op () =
  (* The pending write of the crashed process must never take effect. *)
  let witnessed = ref [] in
  let r = M.make 0 in
  let procs =
    [|
      (fun () -> M.write r 1);
      (fun () ->
        for _ = 1 to 3 do
          witnessed := M.read r :: !witnessed
        done);
    |]
  in
  let sched =
    Scheduler.with_crash ~pid:0 ~at_clock:0 (Scheduler.round_robin ())
  in
  ignore (Sim.run ~sched procs);
  Alcotest.(check (list int)) "write never happened" [ 0; 0; 0 ] !witnessed

(* ---- safety ---- *)

let test_out_of_steps () =
  let procs =
    [|
      (fun () ->
        let r = M.make 0 in
        while true do
          ignore (M.read r)
        done);
    |]
  in
  Alcotest.check_raises "spinning process exhausts budget"
    (Sim.Out_of_steps 100) (fun () ->
      ignore (Sim.run ~max_steps:100 ~sched:(Scheduler.round_robin ()) procs))

let test_exception_propagates () =
  let procs = [| (fun () -> failwith "boom") |] in
  Alcotest.check_raises "process failure surfaces" (Failure "boom") (fun () ->
      ignore (Sim.run ~sched:(Scheduler.round_robin ()) procs))

let test_nested_run_rejected () =
  let procs =
    [|
      (fun () ->
        ignore (Sim.run ~sched:(Scheduler.round_robin ()) [| (fun () -> ()) |]));
    |]
  in
  Alcotest.check_raises "nested Sim.run rejected"
    (Failure "Sim.run: nested simulations are not supported") (fun () ->
      ignore (Sim.run ~sched:(Scheduler.round_robin ()) procs))

(* ---- primitive semantics ---- *)

let test_cas_semantics () =
  let outcomes = ref [] in
  let procs =
    [|
      (fun () ->
        let r = M.make `A in
        let a = M.read r in
        let first = M.cas r ~expected:a ~desired:`B in
        let second = M.cas r ~expected:a ~desired:`C in
        outcomes := [ first; second ]);
    |]
  in
  ignore (Sim.run ~sched:(Scheduler.round_robin ()) procs);
  Alcotest.(check (list bool)) "second cas fails" [ true; false ] !outcomes

let test_faa_unique () =
  let c = M.make 0 in
  let got = Array.make 4 (-1) in
  let procs = Array.init 4 (fun pid () -> got.(pid) <- M.fetch_and_add c 1) in
  ignore (Sim.run ~sched:(Scheduler.random ~seed:5 ()) procs);
  let sorted = Array.copy got in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "all slots distinct" [| 0; 1; 2; 3 |] sorted

(* ---- trace analysis ---- *)

let test_trace_analysis () =
  let r = M.make 0 in
  let procs =
    [|
      (fun () ->
        for _ = 1 to 4 do
          ignore (M.read r)
        done);
      (fun () ->
        for _ = 1 to 4 do
          M.write r 1
        done);
    |]
  in
  let res =
    Sim.run ~record_trace:true ~sched:(Scheduler.round_robin ()) procs
  in
  let module T = Psnap_sched.Trace in
  Alcotest.(check (list (pair int int)))
    "steps by pid" [ (0, 4); (1, 4) ]
    (T.steps_by_pid res.trace);
  (match T.steps_by_object res.trace with
  | [ (_, name, n) ] ->
    Alcotest.(check string) "single object" "r" name;
    check_int "all accesses on it" 8 n
  | _ -> Alcotest.fail "one object expected");
  check_int "round robin alternates" 7 (T.context_switches res.trace);
  Alcotest.(check (list int)) "no crashes" [] (T.crashes res.trace)

let test_trace_context_switches_solo () =
  let r = M.make 0 in
  let res =
    Sim.run ~record_trace:true
      ~sched:(Scheduler.round_robin ())
      [| (fun () -> ignore (M.read r); ignore (M.read r)) |]
  in
  check_int "solo run: no switches" 0
    (Psnap_sched.Trace.context_switches res.trace)

let test_trace_records_crash () =
  let r = M.make 0 in
  let procs = Array.make 2 (fun () -> ignore (M.read r); ignore (M.read r)) in
  let sched =
    Scheduler.with_crash ~pid:1 ~at_clock:1 (Scheduler.round_robin ())
  in
  let res = Sim.run ~record_trace:true ~sched procs in
  Alcotest.(check (list int)) "crash in trace" [ 1 ]
    (Psnap_sched.Trace.crashes res.trace)

(* ---- escape sanitizer (strict mode) ---- *)

let test_escape_outside_run () =
  (* A cell may be built outside a run, but accessing it outside any run is
     an escape: the access takes no simulator step. *)
  let r = M.make 0 in
  match M.read r with
  | _ -> Alcotest.fail "expected Escape"
  | exception M.Escape _ -> ()

let test_escape_cross_run () =
  (* A cell born inside one run must not leak into a later run. *)
  let leaked = ref None in
  ignore
    (Sim.run ~sched:(Scheduler.round_robin ())
       [|
         (fun () ->
           let r = M.make 0 in
           M.write r 1;
           leaked := Some r);
       |]);
  let r = Option.get !leaked in
  let escaped = ref false in
  ignore
    (Sim.run ~sched:(Scheduler.round_robin ())
       [|
         (fun () ->
           match M.read r with
           | _ -> ()
           | exception M.Escape _ -> escaped := true);
       |]);
  check_bool "stale cell rejected" true !escaped

let test_outside_born_cells_allowed () =
  (* The common pattern: allocate in test setup, use inside several runs. *)
  let r = M.make 0 in
  ignore
    (Sim.run ~sched:(Scheduler.round_robin ()) [| (fun () -> M.write r 1) |]);
  ignore
    (Sim.run ~sched:(Scheduler.round_robin ())
       [| (fun () -> check_int "value persists" 1 (M.read r)) |])

let test_sanitizer_metrics () =
  Metrics.reset_sanitizer ();
  let r = M.make 0 in
  ignore
    (Sim.run ~sched:(Scheduler.round_robin ())
       [|
         (fun () ->
           ignore (M.read r);
           M.write r 2);
       |]);
  let s = Metrics.sanitizer () in
  check_bool "strict on" true s.Metrics.strict;
  check_int "two accesses checked" 2 s.Metrics.checked;
  check_int "no escapes" 0 s.Metrics.escaped;
  (match M.read r with
  | _ -> Alcotest.fail "expected Escape"
  | exception M.Escape _ -> ());
  let s = Metrics.sanitizer () in
  check_int "escape counted" 1 s.Metrics.escaped

(* ---- metrics ---- *)

let test_metrics_steps () =
  let rec_ = Metrics.create () in
  let r = M.make 0 in
  let procs =
    [|
      (fun () ->
        Metrics.measure rec_ ~pid:0 ~kind:"op3" (fun () ->
            ignore (M.read r);
            ignore (M.read r);
            M.write r 1);
        Metrics.measure rec_ ~pid:0 ~kind:"op1" (fun () -> ignore (M.read r)));
    |]
  in
  ignore (Sim.run ~sched:(Scheduler.round_robin ()) procs);
  check_int "op3 steps" 3 (Metrics.total_steps (Metrics.by_kind rec_ "op3"));
  check_int "op1 steps" 1 (Metrics.total_steps (Metrics.by_kind rec_ "op1"))

let test_metrics_contention () =
  let rec_ = Metrics.create () in
  let r = M.make 0 in
  let busy pid n () =
    Metrics.measure rec_ ~pid ~kind:"op" (fun () ->
        for _ = 1 to n do
          ignore (M.read r)
        done)
  in
  ignore
    (Sim.run ~sched:(Scheduler.round_robin ())
       [| busy 0 5; busy 1 5; busy 2 5 |]);
  let all = Metrics.samples rec_ in
  check_int "interval contention" 3 (Metrics.max_interval_contention all);
  check_int "point contention" 3 (Metrics.max_point_contention all)

let test_metrics_sequential_no_overlap () =
  let rec_ = Metrics.create () in
  let r = M.make 0 in
  let procs =
    [|
      (fun () ->
        Metrics.measure rec_ ~pid:0 ~kind:"a" (fun () -> ignore (M.read r));
        Metrics.measure rec_ ~pid:0 ~kind:"b" (fun () -> ignore (M.read r)));
    |]
  in
  ignore (Sim.run ~sched:(Scheduler.round_robin ()) procs);
  check_int "sequential ops do not overlap" 1
    (Metrics.max_interval_contention (Metrics.samples rec_))

(* ---- the counter registry ---- *)

(* Counters are atomic: bumps racing in from several domains are all
   counted. *)
let test_counter_exact_across_domains () =
  let c = Metrics.Txn.begins and domains = 4 and n = 1_000_000 and k = 3 in
  Metrics.(reset Txn.group);
  let bump () =
    for i = 1 to n do
      Metrics.incr c;
      if i mod 100 = 0 then Metrics.add c k
    done
  in
  List.iter Domain.join (List.init domains (fun _ -> Domain.spawn bump));
  check_int "no bump lost" (domains * (n + (n / 100 * k))) (Metrics.get c)

let test_counter_groups () =
  let groups =
    Metrics.
      [ Serving.group; Durable.group; Net.group; Reconfig.group; Txn.group ]
  in
  let names =
    List.concat_map (fun g -> List.map fst (Metrics.read g).Metrics.values)
      groups
  in
  check_int "names are unique JSON keys" (List.length names)
    (List.length (List.sort_uniq compare names));
  check_bool "every counter has help" true
    (List.for_all
       (fun c -> Metrics.help c <> "")
       (List.concat_map Metrics.counters groups));
  Metrics.(reset Txn.group; reset Net.group);
  Metrics.(incr Txn.begins; add Net.sends 5);
  Metrics.(reset Txn.group);
  check_int "reset zeroes its group" 0 Metrics.(get Txn.begins);
  check_int "and leaves the others alone" 5 Metrics.(get Net.sends)

let () =
  Alcotest.run "sim"
    [
      ( "steps",
        [
          Alcotest.test_case "steps counted" `Quick test_steps_counted;
          Alcotest.test_case "each primitive one step" `Quick
            test_each_primitive_is_one_step;
          Alcotest.test_case "allocation free" `Quick test_allocation_is_free;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "round robin" `Quick test_round_robin_alternates;
          Alcotest.test_case "random deterministic" `Quick
            test_random_deterministic;
          Alcotest.test_case "pct deterministic" `Quick
            test_pct_deterministic_and_complete;
          Alcotest.test_case "pct depth 1" `Quick test_pct_priorities_starve_low;
          Alcotest.test_case "replay forces order" `Quick
            test_replay_forces_order;
          Alcotest.test_case "replay stops" `Quick
            test_replay_stops_when_exhausted;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "crash halts" `Quick test_crash_halts_process;
          Alcotest.test_case "crash drops pending op" `Quick
            test_crash_drops_pending_op;
        ] );
      ( "safety",
        [
          Alcotest.test_case "out of steps" `Quick test_out_of_steps;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested run rejected" `Quick
            test_nested_run_rejected;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "cas" `Quick test_cas_semantics;
          Alcotest.test_case "faa unique" `Quick test_faa_unique;
        ] );
      ( "trace",
        [
          Alcotest.test_case "analysis" `Quick test_trace_analysis;
          Alcotest.test_case "solo switches" `Quick
            test_trace_context_switches_solo;
          Alcotest.test_case "crash recorded" `Quick test_trace_records_crash;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "escape outside run" `Quick
            test_escape_outside_run;
          Alcotest.test_case "escape across runs" `Quick test_escape_cross_run;
          Alcotest.test_case "outside-born cells allowed" `Quick
            test_outside_born_cells_allowed;
          Alcotest.test_case "sanitizer counters" `Quick test_sanitizer_metrics;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "steps per op" `Quick test_metrics_steps;
          Alcotest.test_case "contention" `Quick test_metrics_contention;
          Alcotest.test_case "no overlap" `Quick
            test_metrics_sequential_no_overlap;
          Alcotest.test_case "counters exact across domains" `Quick
            test_counter_exact_across_domains;
          Alcotest.test_case "counter groups" `Quick test_counter_groups;
        ] );
    ]
