open Psnap
open Scenario

type mem_faults = { kinds : Event.fault_kind list; rate : float; max : int }

type config = {
  sched : string;
  nemesis : string;
  mem_faults : mem_faults option;
  crash_at : int option;
  power : Scenario.power;
  seed_base : int;
  seeds : int;
  expect_violations : bool;
  shrink : bool;
  replay_file : string option;
  json_file : string option;
}

let default =
  {
    sched = "random";
    nemesis = "none";
    mem_faults = None;
    crash_at = None;
    power = No_power_loss;
    seed_base = 0;
    seeds = 10;
    expect_violations = false;
    shrink = false;
    replay_file = None;
    json_file = None;
  }

let scheds =
  [ "random"; "bursty"; "starve"; "starve-updaters"; "pct"; "round-robin" ]

let nemeses = [ "none"; "chaos"; "storm"; "crash-restart" ]

let choose what name names =
  raise
    (Usage
       (Printf.sprintf "unknown %s %S (choose from: %s)" what name
          (String.concat ", " names)))

let schedule cfg sc =
  let base =
    match cfg.sched with
    | "random" -> fun ~seed -> Scheduler.random ~seed ()
    | "bursty" -> fun ~seed -> Scheduler.bursty ~seed ()
    | "starve" ->
      fun ~seed -> Scheduler.starve ~victims:sc.scanner_pids ~seed ()
    | "starve-updaters" ->
      (* suspends a writer for long stretches — against the quorum backend
         this parks it mid-Put-broadcast, the half-replicated-write window
         the weak read mode turns into a new/old inversion *)
      fun ~seed -> Scheduler.starve ~victims:sc.updater_pids ~seed ()
    | "pct" -> fun ~seed -> Scheduler.pct ~seed ~expected_steps:2000 ()
    | "round-robin" -> fun ~seed:_ -> Scheduler.round_robin ()
    | s -> choose "scheduler" s scheds
  in
  let nemesis =
    match cfg.nemesis with
    | "none" -> fun ~seed:_ s -> s
    | "chaos" -> fun ~seed s -> Scheduler.chaos ~seed ~inner:s ()
    | "storm" -> fun ~seed s -> Scheduler.crash_storm ~seed s
    | "crash-restart" ->
      fun ~seed:_ s ->
        Scheduler.with_crash_restart ~pid:0 ~crash_at:40 ~restart_after:30 s
    | s -> choose "nemesis" s nemeses
  in
  fun ~power ~seed ->
    let s = nemesis ~seed (base ~seed) in
    let s =
      match cfg.mem_faults with
      | Some f ->
        Scheduler.mem_storm ~seed ~kinds:f.kinds ~rate:f.rate
          ~max_faults:f.max s
      | None -> s
    in
    let s = sc.inject ~seed s in
    let s =
      match power with
      | No_power_loss | Power_sweep -> s
      | Power_at c -> Scheduler.power_loss_at ~at_clock:c s
      | Power_storm -> Scheduler.power_storm ~seed s
    in
    match cfg.crash_at with
    | Some at_clock -> Scheduler.with_crash ~pid:0 ~at_clock s
    | None -> s

let replay_sched decisions =
  Scheduler.replay_decisions ~lenient:true ~fallback:(Scheduler.round_robin ())
    decisions

type 'v execution = {
  result : Sim.result;
  violations : 'v list;
  samples : Metrics.sample list;
}

let execute ?(record_trace = false) sc ~sched =
  let rec_ = Metrics.create () in
  let w = sc.build rec_ in
  let result = Sim.run ~record_trace ~recover:w.recover ~sched w.procs in
  { result; violations = w.harvest (); samples = Metrics.samples rec_ }

let write_json path fields =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n";
      List.iteri
        (fun i (k, v) ->
          Printf.fprintf oc "  %S: %s%s\n" k v
            (if i < List.length fields - 1 then "," else ""))
        fields;
      output_string oc "}\n")

let print_steps (t : totals) =
  let all = List.concat t.samples in
  let kinds =
    List.sort_uniq compare (List.map (fun (s : Metrics.sample) -> s.kind) all)
  in
  if kinds <> [] then begin
    let row kind =
      let ss = List.filter (fun (s : Metrics.sample) -> s.kind = kind) all in
      [
        kind;
        string_of_int (List.length ss);
        Printf.sprintf "%.1f" (Metrics.mean_steps ss);
        string_of_int (Metrics.max_steps ss);
      ]
    in
    Table.print
      (Table.make ~title:"steps per operation"
         ~header:[ "operation"; "count"; "mean steps"; "worst steps" ]
         (List.map row kinds));
    if List.mem "scan" kinds then
      Printf.printf "max interval contention seen by a scan: %d\n"
        (List.fold_left
           (fun acc run ->
             max acc
               (Metrics.max_interval_contention
                  ~over:(fun (s : Metrics.sample) -> s.kind = "scan")
                  run))
           0 t.samples)
  end

let run cfg sc =
  let compose = schedule cfg sc in
  (* Cells must be registered as fault targets before any world is built;
     replayed schedules may carry fault decisions whatever the flags. *)
  Mem.Sim.set_fault_tracking true;
  Metrics.reset_mem_faults ();
  List.iter Metrics.reset sc.groups;
  let runs = ref 0 and steps = ref 0 and crashes = ref 0 and restarts = ref 0 in
  let violations = ref 0 and samples = ref [] and failing = ref None in
  let print_violations vs =
    List.iteri
      (fun i v -> if i < 5 then Fmt.pr "  %a@." sc.pp_violation v)
      vs;
    if List.length vs > 5 then
      Printf.printf "  ... and %d more\n" (List.length vs - 5)
  in
  (* One accounted execution; [None] when it raised.  A garbled value can
     escape as an exception: a failure of the object under test, whose
     trace died with the run, so it cannot feed the shrinker. *)
  let attempt ~label sched =
    incr runs;
    match execute ~record_trace:cfg.shrink sc ~sched with
    | x ->
      let res = x.result in
      steps := !steps + res.Sim.clock;
      crashes := !crashes + List.length res.Sim.crashed;
      restarts :=
        !restarts
        + Array.fold_left (fun a i -> a + (i - 1)) 0 res.Sim.incarnations;
      samples := x.samples :: !samples;
      let n = List.length x.violations in
      if n > 0 then begin
        violations := !violations + n;
        Printf.printf "%s: %d violations\n" label n;
        print_violations x.violations;
        if cfg.shrink && !failing = None then
          failing := Some (Trace.schedule res.Sim.trace)
      end;
      Some res
    | exception e ->
      incr violations;
      Printf.printf "%s: harness crash: %s\n" label (Printexc.to_string e);
      None
  in
  let replayed = cfg.replay_file <> None && not cfg.shrink in
  (match cfg.replay_file with
  | Some path when replayed ->
    let decisions = Shrink.load path in
    Printf.printf "replaying %d decisions from %s\n" (List.length decisions)
      path;
    ignore (attempt ~label:"replay" (replay_sched decisions))
  | _ ->
    for k = 0 to cfg.seeds - 1 do
      let seed = cfg.seed_base + k in
      match cfg.power with
      | Power_sweep -> (
        (* a blackout at every schedule point: the baseline learns the
           schedule length, then one run per clock value *)
        match
          attempt ~label:(Printf.sprintf "seed %d baseline" seed)
            (compose ~power:No_power_loss ~seed)
        with
        | Some base ->
          for c = 1 to base.Sim.clock - 1 do
            ignore
              (attempt
                 ~label:(Printf.sprintf "seed %d power-loss@%d" seed c)
                 (compose ~power:(Power_at c) ~seed))
          done
        | None -> ())
      | power ->
        let label = Printf.sprintf "seed %d" seed in
        ignore (attempt ~label (compose ~power ~seed))
    done);
  let totals =
    {
      runs = !runs;
      steps = !steps;
      crashes = !crashes;
      restarts = !restarts;
      violations = !violations;
      samples = List.rev !samples;
      replayed;
    }
  in
  (* every counter, before the shrinker's replays add to them *)
  let report = sc.report () in
  let readings = List.map Metrics.read sc.groups in
  let mf = Metrics.mem_faults () in
  let fails decisions =
    match execute sc ~sched:(replay_sched decisions) with
    | x -> x.violations <> []
    | exception _ -> true
  in
  let shrunk =
    match !failing with
    | None -> None
    | Some schedule when not (fails schedule) ->
      print_endline
        "shrink: recorded schedule does not reproduce deterministically; \
         skipping";
      None
    | Some schedule ->
      let minimal, calls = Shrink.minimize ~oracle:fails schedule in
      Printf.printf "shrink: %d decisions -> %d minimal (%d oracle runs)\n"
        (List.length schedule) (List.length minimal) calls;
      List.iter
        (fun d -> print_endline (Scheduler.decision_to_string d))
        minimal;
      Option.iter
        (fun path ->
          Shrink.save path minimal;
          Printf.printf "shrink: minimal schedule saved to %s\n" path)
        cfg.replay_file;
      Some (List.length minimal)
  in
  Printf.printf "%s: %s, %s, %d runs%s%s%s%s\n" sc.impl sc.shape cfg.sched
    totals.runs
    (if cfg.nemesis = "none" then "" else ", nemesis " ^ cfg.nemesis)
    (if cfg.mem_faults = None then "" else ", mem-faults")
    (match cfg.power with
    | No_power_loss -> ""
    | Power_at c -> Printf.sprintf ", power-loss @%d" c
    | Power_storm -> ", power-loss storm"
    | Power_sweep -> ", power-loss sweep")
    (match cfg.crash_at with
    | Some c -> Printf.sprintf ", crash p0@%d" c
    | None -> "");
  print_steps totals;
  Printf.printf "faults: %d crashes, %d restarts\n" totals.crashes
    totals.restarts;
  report.print ();
  List.iter (Fmt.pr "%a@." Metrics.pp) readings;
  let repairs = mf.Metrics.hardened.Mem.Hardened.repairs in
  if
    cfg.mem_faults <> None
    || Metrics.total_injected mf > 0
    || Metrics.total_detected mf > 0
    || repairs > 0
  then Fmt.pr "%a@." Metrics.pp_mem_faults mf;
  Option.iter
    (fun path ->
      let int = string_of_int in
      write_json path
        ([
           ("impl", Printf.sprintf "%S" sc.impl);
           ("sched", Printf.sprintf "%S" cfg.sched);
           ("nemesis", Printf.sprintf "%S" cfg.nemesis);
           ("seed_base", int cfg.seed_base);
           ("runs", int totals.runs);
           ("steps", int totals.steps);
           ("crashes", int totals.crashes);
           ("restarts", int totals.restarts);
           ("violations", int totals.violations);
         ]
        @ report.fields
        @ List.concat_map Metrics.fields readings
        @ [
            ("mem_faults_injected", int (Metrics.total_injected mf));
            ("mem_faults_detected", int (Metrics.total_detected mf));
            ("hardened_repairs", int repairs);
            ( "shrunk_schedule_len",
              match shrunk with Some l -> int l | None -> "null" );
          ]);
      Printf.printf "json summary written to %s\n" path)
    cfg.json_file;
  let v = totals.violations in
  let oracle_ok =
    if cfg.expect_violations then begin
      if v > 0 then
        Printf.printf "checker: %d violations (expected%s)\n" v
          (if sc.expected = "" then "" else ": " ^ sc.expected)
      else
        print_endline
          "checker: NO violations, but --expect-violations was given";
      v > 0
    end
    else begin
      if v > 0 then Printf.printf "checker: %d VIOLATIONS\n" v
      else if sc.checked then
        Printf.printf "checker: %s\n" (report.clean totals);
      v = 0
    end
  in
  let extra_ok = report.ok totals in
  if oracle_ok && extra_ok then 0 else 1
