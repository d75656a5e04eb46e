(* The psnap benchmark.  See README.md for the workloads and metrics.

   main.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]
   main.exe --selftest

   The last line of standard output is the result: one JSON object with
   the keys correct, attempted, failed and metrics.  The line before it
   records the seed, the workload's configuration and the host's core
   count. *)

(* The simulator phase replays the head of the stream generated from this
   fixed seed, whatever --seed is: step counts are exact, so a fixed input
   makes them identical on every run and lets them carry a tight bound. *)
let sim_seed = 0

let sim_ops = 2_000

(* ---- output ---- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_float v =
  if Float.is_nan v || Float.is_integer v && Float.abs v < 1e15 then
    if Float.is_nan v then "null" else Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_float m.value) m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

let print_context ~workload ~seed ~seconds ~trace config =
  Printf.printf
    "{\"context\": {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \
     \"trace\": %d, \"nproc\": %d, \"ocaml\": %S, \"config\": %s}}\n%!"
    workload seed seconds (Bool.to_int trace)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version config

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let fdiv a b = if b = 0.0 then 0.0 else a /. b

let median_i l = Client.median_f (List.map float_of_int l)

(* ---- per-layer metrics of the traced passes ---- *)

let layer_metrics ~recover_ns ~(net : Psnap.Metrics.net option) ~explore =
  let open Tracing in
  let u = c.ops.(0) and s = c.ops.(1) in
  let n = u + s in
  let self k name = self_of ~kind:k name in
  let per_op name = ratio (both self_of name) n in
  let mean_span name = ratio (both dur_of name) (both spans_of name) in
  let sum a = a.(0) + a.(1) in
  let persist_self k = self k Persist + self k Append + self k Sync in
  let ns = "ns" in
  [
    metric "mem.accesses_per_update" "count" (ratio c.mem.(0) u);
    metric "mem.accesses_per_scan" "count" (ratio c.mem.(1) s);
    metric "activeset.calls_per_op" "count" (ratio (sum c.aset_calls) n);
    metric "activeset.self_ns_per_op" ns (per_op Activeset);
    metric "snapshot.update_self_ns" ns (ratio (self 0 Snapshot) u);
    metric "snapshot.scan_self_ns" ns (ratio (self 1 Snapshot) s);
    metric "snapshot.collects_per_scan" "count" (ratio c.collects.(1) s);
    metric "runtime.update_self_ns" ns (ratio (self 0 Runtime) u);
    metric "runtime.scan_self_ns" ns (ratio (self 1 Runtime) s);
    metric "runtime.rounds_per_scan" "count" (ratio c.rt_rounds.(1) c.rt_scans.(1));
    metric "runtime.shards_per_scan" "count" (ratio c.rt_subscans.(1) c.rt_rounds.(1));
    metric "persist.update_self_ns" ns (ratio (persist_self 0) u);
    metric "persist.append_ns" ns (mean_span Append);
    metric "persist.sync_ns" ns (mean_span Sync);
    metric "persist.bytes_per_update" "bytes" (ratio c.bytes.(0) u);
    metric "persist.syncs_per_update" "count" (ratio c.syncs.(0) u);
    metric "persist.checkpoint_ms" "ms" (ratio !ckpt_ns !ckpt_count /. 1e6);
    metric "persist.recover_s" "s" (recover_ns /. 1e9);
  ]
  @ (let nv f = match net with Some v -> f v | None -> 0 in
     [
       metric "net.quorum_ops_per_op" "count"
         (if net = None then 0.0 else ratio (sum c.mem) n);
       metric "net.quorum_op_ns" ns (mean_span Net);
       metric "net.rounds_per_quorum_op" "count"
         (ratio (nv (fun v -> v.Psnap.Metrics.rounds)) (nv (fun v -> v.quorum_ops)));
       metric "net.msgs_per_op" "count" (ratio (nv (fun v -> v.sends)) n);
       metric "net.resends_per_op" "count" (ratio (nv (fun v -> v.resends)) n);
       metric "net.writeback_skip_ratio" "ratio"
         (ratio
            (nv (fun v -> v.writeback_skips))
            (nv (fun v -> v.writebacks + v.writeback_skips)));
       metric "net.quorum_wait_polls" "count"
         (ratio (nv (fun v -> v.quorum_wait)) (nv (fun v -> v.quorum_ops)));
       metric "net.local_self_ns" ns
         (if net = None then 0.0 else per_op Snapshot +. per_op Activeset);
     ])
  @ explore
  @ [
      metric "trace.ns_per_op" ns (ratio (both dur_of Bench) n);
      metric "trace.bench_self_ns" ns (per_op Bench);
    ]

(* One exhaustion of the checker under the counting shims: the serving
   workloads have a single client, so CAS failures are counted here, under
   two-process contention. *)
type checked = {
  run : Explore.result;
  steps : int;
  cas : int;
  cas_failed : int;
  convicted : bool;  (** the unsound mode was convicted *)
}

(* The checker's layers; zero on a run without the checker. *)
let explore_layer_metrics explored =
  let sch, wall, check, steps, cas, cas_failed =
    match explored with
    | Some { run = r; steps; cas; cas_failed; _ } ->
      (r.schedules, r.wall_ns, r.check_ns, steps, cas, cas_failed)
    | None -> (0, 0, 0, 0, 0, 0)
  in
  [
    metric "mem.cas_fail_ratio" "ratio" (ratio cas_failed cas);
    metric "sched.schedules" "count" (float_of_int sch);
    metric "sched.steps_per_schedule" "count" (ratio steps sch);
    metric "sched.replay_ns_per_step" "ns" (ratio (wall - check) steps);
    metric "history.check_ns_per_schedule" "ns" (ratio check sch);
    metric "history.check_share" "ratio" (ratio check wall);
  ]

(* Tail latencies of the traced run's plain passes.  They are reported
   here, not with the end-to-end metrics, because on store-write-heavy and
   on the ABD stack they did not repeat from run to run (see STEADINESS.md). *)
let tail_metrics (plain : Client.pass list) =
  [
    metric "update_p99_ns" "ns" (Client.median_f (List.map (fun (p : Client.pass) -> p.upd_p99) plain));
    metric "scan_p99_ns" "ns" (Client.median_f (List.map (fun (p : Client.pass) -> p.scan_p99) plain));
  ]

(* ---- the exhaustive checker ---- *)

let config_json (c : Explore.config) =
  Printf.sprintf
    "{\"init\": [%s], \"updater_pid\": %d, \"updates\": [%s], \"scans\": [%s]}"
    (String.concat ", " (Array.to_list (Array.map string_of_int c.init)))
    c.updater
    (String.concat ", " (List.map (fun (i, v) -> Printf.sprintf "[%d, %d]" i v) c.updates))
    (String.concat ", "
       (List.map
          (fun a -> "[" ^ String.concat ", " (Array.to_list (Array.map string_of_int a)) ^ "]")
          c.scans))

let checker_json =
  Printf.sprintf "{\"impl\": %S, \"explored\": %s, \"unsound\": {\"impl\": %S, \"explored\": %s}}"
    Psnap.Sim_fig3.name (config_json Explore.sound) Explore.Unsound.name
    (config_json Explore.unsound)

(* The checker's layers ([sched], [history]) are measured in the traced run
   of store-scan-heavy: one exhaustion of [Explore.sound] under the
   counting shim.  The checker must also convict a known-unsound mode.  The
   tracing counters are left to the caller to reset. *)
let run_checker () =
  let convicted = (Explore.Unsound.exhaust ~oracle:true Explore.unsound).Explore.violation in
  Tracing.reset ();
  Tracing.on := true;
  let run = Explore.Traced.exhaust ~oracle:true Explore.sound in
  Tracing.on := false;
  let c = Tracing.c and sum a = a.(0) + a.(1) in
  { run; steps = sum c.mem; cas = sum c.cas; cas_failed = sum c.cas_failed; convicted }

(* ---- the ABD stack ---- *)

let abd_passes = 2

let abd_json =
  Printf.sprintf "{\"stream\": %s, \"replicas\": %d, \"traced_passes\": %d}"
    (Stream.spec_json Workloads.abd_net3) Abd.replicas abd_passes

(* The net layer is measured in the traced run of store-write-heavy: traced
   passes of the abd-net3 stream over Figure 3 on ABD quorum registers
   served by three replica domains.  Returns its net.* metrics, its
   operations and its failed ones; the tracing counters are left to the
   caller to reset. *)
let run_abd ~seed =
  let stream = Stream.generate Workloads.abd_net3 ~seed in
  Tracing.reset ();
  Abd.net_sum := None;
  let passes =
    List.init abd_passes (fun _ -> Client.run_pass (module Abd.Traced) stream ~traced:true)
  in
  let nets =
    List.filter
      (fun m -> String.starts_with ~prefix:"net." m.name)
      (layer_metrics ~recover_ns:0.0 ~net:!Abd.net_sum ~explore:[])
  in
  let failed =
    List.fold_left
      (fun a (p : Client.pass) -> a + p.failed + if p.verified then 0 else 1)
      0 passes
  in
  (nets, abd_passes * Array.length stream.Stream.is_update, failed)

(* ---- the workloads ---- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let run_stack ~workload ~spec ~seed ~seconds ~trace ~(plain : Client.stack)
    ~(traced : Client.stack) ~sim_steps ~hosted ~out_dir =
  let hosted = if trace then hosted else `None in
  let stream = Stream.generate spec ~seed in
  print_context ~workload ~seed ~seconds ~trace
    (Printf.sprintf "{\"stream\": %s, \"sim_ops\": %d, \"sim_seed\": %d, \"passes\": \"%s\"%s}"
       (Stream.spec_json spec) sim_ops sim_seed
       (if trace then "alternate plain/traced" else "plain")
       (match hosted with
       | `Checker -> ", \"checker\": " ^ checker_json
       | `Abd -> ", \"abd\": " ^ abd_json
       | `None -> ""));
  let sim : Steps.result =
    sim_steps (Stream.generate spec ~seed:sim_seed) ~ops:sim_ops ~seed:sim_seed
  in
  let explored = if hosted = `Checker then Some (run_checker ()) else None in
  let nets, abd_ops, abd_failed = if hosted = `Abd then run_abd ~seed else ([], 0, 0) in
  Tracing.reset ();
  let recovers = ref [] in
  (* Latencies of the plain passes, pooled for the p50s: when latencies are
     bimodal, as the ABD stack's scans are, the share of each mode changes
     from pass to pass and a single pass's median jumps between the modes. *)
  let upd_pool = Client.Hist.create () and scan_pool = Client.Hist.create () in
  let passes =
    Client.passes ~seconds ~min:(if trace then 4 else 3) (fun k ->
        let is_traced = trace && k mod 2 = 1 in
        Store.last_recover_ns := 0;
        let p =
          if is_traced then Client.run_pass traced stream ~traced:true
          else Client.run_pass ~pool:(upd_pool, scan_pool) plain stream ~traced:false
        in
        if !Store.last_recover_ns > 0 then
          recovers := !Store.last_recover_ns :: !recovers;
        Printf.eprintf "pass %d%s: setup %.3f s, %.0f ops/s, check %.3f s\n%!" k
          (if is_traced then " (traced)" else "")
          (float_of_int p.setup_ns /. 1e9)
          (float_of_int (Array.length stream.Stream.is_update) /. (float_of_int p.wall_ns /. 1e9))
          (float_of_int p.check_ns /. 1e9);
        (is_traced, p))
  in
  let plain_p = List.filter_map (fun (t, p) -> if t then None else Some p) passes in
  let traced_p = List.filter_map (fun (t, p) -> if t then Some p else None) passes in
  let all = List.map snd passes in
  let ops = Array.length stream.Stream.is_update in
  let checker_ops, checker_failed =
    match explored with
    | Some { run; convicted; _ } ->
      ( run.schedules * Explore.ops_per_execution Explore.sound,
        Bool.to_int run.violation + if convicted then 0 else 1 )
    | None -> (0, 0)
  in
  let attempted = (List.length all * ops) + sim.Steps.ops + checker_ops + abd_ops in
  let failed =
    List.fold_left
      (fun a (p : Client.pass) -> a + p.failed + if p.verified then 0 else 1)
      (sim.Steps.violations + checker_failed + abd_failed) all
  in
  let thr (ps : Client.pass list) =
    Client.median_f
      (List.map (fun (p : Client.pass) -> float_of_int ops /. (float_of_int p.wall_ns /. 1e9)) ps)
  in
  let metrics =
    if not trace then
      [
        metric "throughput_ops_s" "ops/s" (thr plain_p);
        metric "update_p50_ns" "ns" (Client.Hist.percentile upd_pool 50.0);
        metric "scan_p50_ns" "ns" (Client.Hist.percentile scan_pool 50.0);
        metric "cpu_ns_per_op" "ns"
          (Client.median_f
             (List.map (fun (p : Client.pass) -> ratio p.cpu_ns ops) plain_p));
        metric "setup_s" "s"
          (median_i (List.map (fun (p : Client.pass) -> p.setup_ns) all) /. 1e9);
        metric "check_s" "s"
          (median_i (List.map (fun (p : Client.pass) -> p.check_ns) all) /. 1e9);
        metric "sim_update_steps" "steps" sim.Steps.update_steps;
        metric "sim_scan_steps" "steps" sim.Steps.scan_steps;
      ]
    else
      List.map
        (fun m -> Option.value (List.find_opt (fun n -> n.name = m.name) nets) ~default:m)
        (layer_metrics
           ~recover_ns:(if !recovers = [] then 0.0 else median_i !recovers)
           ~net:None ~explore:(explore_layer_metrics explored))
      @ tail_metrics plain_p
      @ [
          metric "trace.overhead_ratio" "ratio" (fdiv (thr plain_p) (thr traced_p));
          metric "failed_op_ratio" "ratio" (ratio failed attempted);
        ]
  in
  if trace then begin
    let file =
      Filename.concat out_dir (Printf.sprintf "%s-seed%d.spans.json" workload seed)
    in
    Out_channel.with_open_text file (fun oc ->
        Out_channel.output_string oc (Tracing.spans_json ()))
  end;
  { correct = failed = 0; attempted; failed; metrics }

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out_dir = ref "perfbench/out" and selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " Workloads.names);
      ("--seed", Arg.Set_int seed, "N stream seed");
      ("--seconds", Arg.Set_float seconds, "S measured wall seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ("--out", Arg.Set_string out_dir, "DIR where traced runs write their spans");
      ("--selftest", Arg.Set selftest, " run the benchmark's self-tests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !selftest then exit (Selftest.run ());
  if not (List.mem !workload Workloads.names) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let stack ~workload ~spec ~hosted =
    run_stack ~workload ~spec ~seed ~seconds ~trace ~plain:(module Store.Plain)
      ~traced:(module Store.Traced) ~sim_steps:Store.sim_steps ~hosted ~out_dir:!out_dir
  in
  let o =
    match !workload with
    | "store-write-heavy" as w -> stack ~workload:w ~spec:Workloads.write_heavy ~hosted:`Abd
    | w -> stack ~workload:w ~spec:Workloads.scan_heavy ~hosted:`Checker
  in
  print_result ~correct:o.correct ~attempted:o.attempted ~failed:o.failed o.metrics
