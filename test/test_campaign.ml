(* Tests of the campaign loop (lib/harness/campaign.ml): every committed
   witness schedule replays through it to the documented verdict in both
   its unsound and its sound mode, an execution past its step budget is
   judged not to terminate, and the simulate CLI honours the replay,
   shrink and expect-violations flags in every campaign. *)

open Psnap
open Psnap_harness

let check_int = Alcotest.(check int)

let sharded mode : (module Snapshot.S) =
  (module Runtime.Sharded.Make (Mem.Sim) (Sim_fig3)
            (struct
              let shards = 3
              let partition = `Round_robin
              let mode = mode
            end))

let snap ?(m = 64) ?(r = 8) ?(updaters = 3) ?(updates = 30) ?(scanners = 2)
    ?(scans = 8) () =
  { Scenario.m; r; updaters; updates; scanners; scans }

(* The scenarios of the documented replay commands, built on demand. *)

let flat ?m impl () = Scenario.flat impl (snap ?m ()) ~check:true

let durable write_ahead () =
  Scenario.durable
    ~config:{ Sim_durable_fig3.default_config with write_ahead }
    ~power:Scenario.No_power_loss
    (snap ~m:4 ~r:4 ~updaters:1 ~updates:3 ~scanners:2 ~scans:6 ())

let net mode () =
  Scenario.net
    (module On_net_sim.Nonblocking)
    ~mode ~replicas:3 ~net_nemesis:"none" ~net_rate:0.
    (snap ~m:4 ~r:4 ~updaters:3 ~updates:12 ~scanners:3 ~scans:8 ())
    ~check:true

let txn mode () =
  Scenario.txn ~mode
    (snap ~m:4 ~r:2 ~updaters:2 ~updates:3 ~scanners:1 ~scans:2 ())

let reconfig mode () =
  Scenario.reconfig ~mode ~replicas:3 ~spares:2 ~net_nemesis:"none"
    ~net_rate:0. ~reconfig_nemesis:"none" ~replica_deaths:0
    (snap ~updaters:1 ~updates:20 ~scanners:2 ~scans:3 ())
    ~check:true

(* Replays witness [name] as the CLI does — giving the campaign's exit
   status — then once more to count the oracle's violations.  `dune
   runtest` runs from the test directory inside _build, with the schedules
   and the CLI staged one level up. *)
let replay name ~expect_violations sc =
  let path = Filename.concat "../schedules" (name ^ ".sched") in
  let code =
    Campaign.run
      { Campaign.default with replay_file = Some path; expect_violations }
      sc
  in
  let sched = Campaign.replay_sched (Shrink.load path) in
  let x = Campaign.execute sc ~sched in
  (List.length x.Campaign.violations, code)

(* One row per committed witness: the unsound mode's violations and exit
   status (with [expect_violations] as documented), then the sound mode,
   which must replay clean with exit 0. *)
let row name ?(expect_violations = false) expected unsound sound =
  [
    Alcotest.test_case (name ^ " unsound") `Quick (fun () ->
        let v, c = replay name ~expect_violations (unsound ()) in
        check_int "violations" (fst expected) v;
        check_int "exit status" (snd expected) c);
    Alcotest.test_case (name ^ " sound") `Quick (fun () ->
        let v, c = replay name ~expect_violations:false (sound ()) in
        check_int "violations" 0 v;
        check_int "exit status" 0 c);
  ]

let witness_cases =
  List.concat
    [
      row "e15-fig3-corrupt" (8, 1) (flat (module Sim_fig3))
        (flat (module On_replicated.Fig3));
      row "e17-sharded-relaxed" (1, 1)
        (flat ~m:32 (sharded `Relaxed))
        (flat ~m:32 (sharded `Validated));
      row "e18-durable-latelog" ~expect_violations:true (6, 0) (durable false)
        (durable true);
      row "e19-abd-weak" ~expect_violations:true (1, 0) (net Net.Abd.Weak)
        (net Net.Abd.Abd);
      row "e20-txn-lww" ~expect_violations:true (2, 0) (txn Txn.Lww)
        (txn Txn.Fcw);
      row "e21-reconfig-naive" ~expect_violations:true (1, 0)
        (reconfig Net.Reconfig.Naive)
        (reconfig Net.Reconfig.Fenced);
    ]

(* ---- the step budget ---- *)

(* An execution that exhausts its scenario's step budget did not
   terminate: its own verdict, not an oracle violation or an exception,
   and it fails the campaign.  The default budget completes the same
   run. *)
let test_step_budget () =
  let verdict sc =
    Campaign.judge (fun () ->
        (Campaign.execute sc ~sched:(Scheduler.random ~seed:0 ()))
          .Campaign.violations)
  in
  let starved = { (flat (module Sim_fig3) ()) with Scenario.max_steps = 10 } in
  (match verdict starved with
  | Campaign.Did_not_terminate -> ()
  | _ -> Alcotest.fail "a run past its budget must not terminate");
  check_int "exit status" 1
    (Campaign.run { Campaign.default with seeds = 1 } starved);
  match verdict (flat (module Sim_fig3) ()) with
  | Campaign.Clean -> ()
  | _ -> Alcotest.fail "the default budget completes the run"

(* ---- the CLI: flags mean the same in every campaign ---- *)

let simulate args =
  Sys.command ("../bin/simulate.exe " ^ args ^ " > /dev/null 2>&1")

let json_int path key =
  let ic = open_in path in
  let rec find () =
    match input_line ic with
    | line -> (
      match Scanf.sscanf line " %S: %d" (fun k v -> (k, v)) with
      | k, v when k = key -> v
      | _ | (exception _) -> find ())
    | exception End_of_file -> Alcotest.failf "no %S in %s" key path
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let test_resilient_expect_violations () =
  check_int "a clean resilient campaign fails --expect-violations" 1
    (simulate "--impl resilient --shrink --expect-violations --seeds 2")

let test_resilient_replays () =
  let json = Filename.temp_file "resilient" ".json" in
  check_int "exit status" 0
    (simulate
       ("--impl resilient --shards 4 --seeds 3 --replay-file \
         ../schedules/e17-sharded-relaxed.sched --json " ^ json));
  check_int "one replayed run, not three seeded ones" 1
    (json_int json "runs");
  Sys.remove json

(* The shrinker replays the failing schedule, faults included; the
   campaign's fault count must not include those replays. *)
let test_shrink_keeps_fault_count () =
  let injected shrink =
    let json = Filename.temp_file "mem-faults" ".json" in
    check_int "exit status" 0
      (simulate
         ("--impl fig3 --mem-faults corrupt --mem-rate 0.05 --mem-max 12 \
           --check --expect-violations --seed 0 --seeds 2 --json " ^ json
         ^ shrink));
    let n = json_int json "mem_faults_injected" in
    Sys.remove json;
    n
  in
  check_int "mem_faults_injected with and without --shrink" (injected "")
    (injected " --shrink")

let test_bad_flag_is_usage () =
  check_int "unknown scheduler" 2 (simulate "--sched nope --seeds 1");
  check_int "r > m" 2 (simulate "--impl txn -m 2 -r 4 --seeds 1")

let () =
  Alcotest.run "campaign"
    [
      ("witnesses", witness_cases);
      ( "budget",
        [
          Alcotest.test_case "a run past its step budget did not terminate"
            `Quick test_step_budget;
        ] );
      ( "cli",
        [
          Alcotest.test_case "resilient honours --expect-violations" `Quick
            test_resilient_expect_violations;
          Alcotest.test_case "resilient honours --replay-file" `Quick
            test_resilient_replays;
          Alcotest.test_case "--shrink keeps the campaign's fault count"
            `Quick test_shrink_keeps_fault_count;
          Alcotest.test_case "bad flag values exit 2" `Quick
            test_bad_flag_is_usage;
        ] );
    ]
