(* Multicore serving benchmark: drive a snapshot implementation with the
   Psnap_runtime load generator and report throughput plus latency
   percentiles.

     dune exec bin/loadgen.exe -- --impl sharded --shards 8 --domains 4 \
         --dist zipf --mix 90:10 --duration 2s --json out.json

   --impl sharded builds the sharded Figure 3 construction with the
   requested shard count at runtime; the flat implementations (fig1,
   fig3, afek, farray) take the same workload for comparison.  JSON
   summaries land wherever --json points (CI uses _artifacts/); the
   steady, traced measure of the same stacks is perfbench/. *)

open Psnap
module Table = Psnap_harness.Table
module Loadgen = Psnap_runtime.Loadgen
module Histogram = Psnap_runtime.Histogram

(* The two figures and the two baselines they are priced against. *)
let flat_impls = select [ "fig1"; "fig3"; "afek"; "farray" ] On_mc.snapshots

let impl_names =
  List.map fst flat_impls
  @ [ "sharded"; "sharded-relaxed"; "resilient"; "durable"; "txn" ]

(* The MVCC transaction layer behind the Snapshot.S face: every update is
   a read-modify-write transaction retried until it commits (conflict and
   busy aborts land in the txn metrics, and each retry pays a fresh begin
   and validation), every scan a read-only transaction — one partial scan
   over the declared read set, never a validation, never a retry.  Feeding
   this to the unchanged load generator prices snapshot-isolation commits
   against plain fig3 operations (EXPERIMENTS.md E20). *)
module Mc_txn_snap : Snapshot.S = struct
  module T = Mc_txn_fig3

  type 'a t = 'a T.t

  type 'a handle = 'a T.handle

  let name = T.name

  let create ~n init = T.create ~n init

  let handle t ~pid = T.handle t ~pid

  let update h i v =
    let rec go () =
      let x = T.begin_ h in
      ignore (T.read x i);
      T.write x i v;
      match T.commit x with Ok _ -> () | Error _ -> go ()
    in
    go ()

  let scan h idxs =
    let x = T.begin_ h in
    let vs = T.read_many x idxs in
    ignore (T.commit x);
    vs

  let read h i = (scan h [| i |]).(0)

  let last_scan_collects _ = 1
end

let impl_of ~shards ~partition ~open_shard name : (module Snapshot.S) =
  match name with
  | "sharded" | "sharded-relaxed" ->
    (module Psnap_runtime.Sharded.Make (Mem.Atomic) (Mc_fig3)
              (struct
                let shards = shards
                let partition = partition
                let mode =
                  if name = "sharded" then `Validated else `Relaxed
              end))
  | "resilient" ->
    (* the supervised serving layer on real atomics; --open-shard pins one
       circuit open for the whole run, so its scans are single-round
       degraded fragments — the experiment behind the "a stalled shard
       does not drag down the others" latency claim *)
    let module RS =
      Psnap_runtime.Resilient.Make (Mem.Atomic) (Mc_fig3) (Mc_fig3)
        (struct
          let shards = shards
          let partition = partition
          include Psnap_runtime.Resilient.Defaults
        end)
    in
    (module struct
      include RS.Snap

      let create ~n init =
        let t = RS.Snap.create ~n init in
        (match open_shard with
        | Some s when s >= 0 && s < RS.nshards t -> RS.force_open t s
        | Some s ->
          Printf.eprintf "--open-shard %d out of range (0..%d)\n" s
            (RS.nshards t - 1);
          exit 2
        | None -> ());
        t
    end)
  | "durable" ->
    (* Figure 3 behind the write-ahead log on the mutex-guarded multicore
       device: every update pays append + sync under its component's
       stripe of the commit lock before it acknowledges.  Measured against
       plain fig3, this prices durability in the latency histograms
       (EXPERIMENTS.md E18). *)
    (module Mc_durable_fig3)
  | "txn" -> (module Mc_txn_snap)
  | _ -> (
    match List.assoc_opt name flat_impls with
    | Some m -> m
    | None ->
      Printf.eprintf "unknown implementation %S (choose from: %s)\n" name
        (String.concat ", " impl_names);
      exit 2)

(* "90:10" -> update probability 0.9; "1u+3s" -> dedicated roles *)
let mix_of s =
  match String.index_opt s ':' with
  | Some i ->
    let u = float_of_string (String.sub s 0 i)
    and sc = float_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    if u < 0.0 || sc < 0.0 || u +. sc <= 0.0 then
      failwith "bad --mix ratio";
    Loadgen.Ratio (u /. (u +. sc))
  | None -> (
    match String.split_on_char '+' s with
    | [ u; sc ]
      when String.length u > 1
           && u.[String.length u - 1] = 'u'
           && String.length sc > 1
           && sc.[String.length sc - 1] = 's' ->
      Loadgen.Dedicated
        {
          updaters = int_of_string (String.sub u 0 (String.length u - 1));
          scanners = int_of_string (String.sub sc 0 (String.length sc - 1));
        }
    | _ -> failwith "bad --mix (use U:S, e.g. 90:10, or NuMs, e.g. 1u+3s)")

(* "2s" | "2" | "250ms" -> seconds *)
let seconds_of s =
  let num t = float_of_string t in
  let n = String.length s in
  if n > 2 && String.sub s (n - 2) 2 = "ms" then
    num (String.sub s 0 (n - 2)) /. 1000.0
  else if n > 1 && s.[n - 1] = 's' then num (String.sub s 0 (n - 1))
  else num s

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

(* ---- reconfigure-under-load (EXPERIMENTS.md E21, wall-clock side) ----

   [domains] writer domains hammer one ABD register each while the
   control thread permanently kills members of the current configuration
   one at a time, driving a fenced replacement reconfiguration after each
   kill — so the state transfer always finds a read quorum of the
   configuration it seals, even once a majority of the ORIGINAL members
   is dead.  Reported: the longest wall-clock stretch any domain went
   without a successful operation (the availability gap), the epoch
   chase count, whether every domain completed operations after the last
   replacement (the service returned to Atomic), and a final read-back
   per register (no acked write may be lost across the replacements). *)
let run_reconfig_scenario replicas spares kill_n domains duration json_file =
  let module A = Psnap.Net.Abd in
  let module R = Psnap.Net.Reconfig in
  let duration_s = seconds_of duration in
  let majority = (replicas / 2) + 1 in
  let kill_n = match kill_n with Some k -> k | None -> majority in
  if replicas < 3 then begin
    Printf.eprintf "--reconfig-under-load needs --replicas >= 3\n";
    exit 2
  end;
  if kill_n > spares then begin
    Printf.eprintf
      "--kill %d needs at least that many --spares (have %d): every dead \
       member is replaced by a fresh spare\n"
      kill_n spares;
    exit 2
  end;
  List.iter Metrics.reset Metrics.[ Net.group; Serving.group; Reconfig.group ];
  (* Bounded attempt budgets: with members dying permanently, an
     operation must give up as [Unavailable] and chase the new
     configuration instead of waiting forever for a dead quorum's acks. *)
  let cluster =
    A.mc_cluster ~poll_budget:32 ~max_attempts:4 ~clients:(domains + 1)
      ~replicas ~spares ~with_manager:true ()
  in
  (* Clients park at most one condition-wait per poll; this ticker
     guarantees they wake and burn budget even when no replica traffic
     reaches them (i.e. while a dead quorum is being replaced). *)
  let waker_stop = Atomic.make false in
  let waker =
    Domain.spawn (fun () ->
        while not (Atomic.get waker_stop) do
          ignore (Unix.select [] [] [] 0.001);
          A.mc_wake cluster
        done)
  in
  let pool = replicas + spares in
  let rdomains =
    List.init pool (fun i -> Domain.spawn (A.mc_replica_body cluster ~index:i))
  in
  let rc = R.mc_attach ~mode:R.Fenced cluster in
  let regs =
    Array.init domains (fun d ->
        A.Mc_mem.make ~name:(Printf.sprintf "ul.reg.%d" d) 0)
  in
  let stop = Atomic.make false in
  let done_at = Atomic.make infinity in
  let last_acked = Array.make domains 0 in
  let ops_ok = Array.make domains 0 in
  let ops_unavail = Array.make domains 0 in
  let post_ok = Array.make domains false in
  let max_gap = Array.make domains 0.0 in
  let lost = Array.make domains false in
  let worker d () =
    let k = ref 0 in
    let last_success = ref (Unix.gettimeofday ()) in
    while not (Atomic.get stop) do
      incr k;
      try
        A.Mc_mem.write regs.(d) !k;
        last_acked.(d) <- !k;
        ops_ok.(d) <- ops_ok.(d) + 1;
        let now = Unix.gettimeofday () in
        let gap = now -. !last_success in
        if gap > max_gap.(d) then max_gap.(d) <- gap;
        last_success := now;
        if now > Atomic.get done_at then post_ok.(d) <- true
      with Psnap.Net.Unavailable _ ->
        ops_unavail.(d) <- ops_unavail.(d) + 1
    done;
    (try
       let v = A.Mc_mem.read regs.(d) in
       if v < last_acked.(d) then lost.(d) <- true
     with Psnap.Net.Unavailable _ -> ())
  in
  let workers = List.init domains (fun d -> Domain.spawn (worker d)) in
  let t0 = Unix.gettimeofday () in
  let sleep s = ignore (Unix.select [] [] [] s) in
  let replace_retries = ref 0 and replaced = ref 0 in
  sleep (duration_s /. 8.);
  for i = 0 to kill_n - 1 do
    A.mc_kill cluster ~index:i;
    let cfg = R.mc_current_config rc in
    let dead = List.nth (A.mc_pool_nodes cluster) i in
    let spare = List.nth (A.mc_pool_nodes cluster) (replicas + i) in
    let members =
      List.map (fun n -> if n = dead then spare else n) cfg.A.members
    in
    let rec attempt n =
      match R.mc_reconfigure rc ~members with
      | _ -> incr replaced
      | exception Psnap.Net.Unavailable _ ->
        incr replace_retries;
        if n < 100 then begin
          sleep 0.02;
          attempt (n + 1)
        end
        else
          Printf.eprintf
            "replacement %d never reached quorum; leaving the configuration\n"
            i
    in
    attempt 0;
    sleep (duration_s /. 8.)
  done;
  Atomic.set done_at (Unix.gettimeofday ());
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed < duration_s then sleep (duration_s -. elapsed);
  Atomic.set stop true;
  List.iter Domain.join workers;
  A.mc_stop cluster;
  List.iter Domain.join rdomains;
  Atomic.set waker_stop true;
  Domain.join waker;
  let recovered = Array.for_all (fun b -> b) post_ok in
  let lost_any = Array.exists (fun b -> b) lost in
  let max_gap_all = Array.fold_left max 0.0 max_gap in
  let final : A.config = R.mc_current_config rc in
  let total a = Array.fold_left ( + ) 0 a in
  Printf.printf
    "reconfigure-under-load: %d domains over %d replicas + %d spares; \
     killed %d members permanently, %d reconfigurations (%d transfer \
     retries), final epoch %d over members %s\n"
    domains replicas spares kill_n Metrics.(get Reconfig.reconfigs)
    !replace_retries final.A.epoch
    (String.concat "," (List.map string_of_int final.A.members));
  Printf.printf
    "ops: %d acked, %d unavailable; max availability gap %.0f ms; %d stale \
     rejects, %d epoch chases; recovered=%b, lost_writes=%b\n"
    (total ops_ok) (total ops_unavail)
    (max_gap_all *. 1000.0)
    Metrics.(get Reconfig.stale_rejects)
    Metrics.(get Reconfig.epoch_chases) recovered lost_any;
  Option.iter
    (fun path ->
      write_json path
        ([
          ("scenario", "\"reconfigure-under-load\"");
          ("domains", string_of_int domains);
          ("replicas", string_of_int replicas);
          ("spares", string_of_int spares);
          ("killed", string_of_int kill_n);
          ("duration_s", Printf.sprintf "%.3f" duration_s);
          ("ops_ok", string_of_int (total ops_ok));
          ("ops_unavailable", string_of_int (total ops_unavail));
          ("max_availability_gap_ms", Printf.sprintf "%.1f" (max_gap_all *. 1000.0));
          ("transfer_retries", string_of_int !replace_retries);
          ("final_epoch", string_of_int final.A.epoch);
          ("quorum_rounds", string_of_int Metrics.(get Net.quorum_rounds));
          ("unavailable_ops", string_of_int Metrics.(get Net.unavailable));
          ("recovered", string_of_bool recovered);
          ("lost_writes", string_of_bool lost_any);
        ]
        @ Metrics.(fields (read Reconfig.group)));
      Printf.printf "json summary written to %s\n" path)
    json_file;
  if lost_any then begin
    Printf.printf "FAIL: an acked write was lost across reconfiguration\n";
    1
  end
  else if not recovered then begin
    Printf.printf
      "FAIL: a domain never completed an operation after the last \
       replacement\n";
    1
  end
  else if !replaced < kill_n then begin
    Printf.printf "FAIL: only %d of %d replacements landed\n" !replaced
      kill_n;
    1
  end
  else begin
    Printf.printf
      "service returned to Atomic after replacing %d of %d original members\n"
      kill_n replicas;
    0
  end

let run impl_name mem_backend replicas shards partition_name m r domains
    dist_name theta mix_s rate scan_name duration warmup seed open_shard
    json_file reconfig_under_load spares kill_n =
  if reconfig_under_load then
    run_reconfig_scenario replicas spares kill_n domains duration json_file
  else
  let partition =
    match partition_name with
    | "rr" | "round-robin" -> `Round_robin
    | "range" -> `Range
    | s ->
      Printf.eprintf "unknown partition %S (choose from: rr, range)\n" s;
      exit 2
  in
  let dist =
    match dist_name with
    | "uniform" -> Loadgen.Uniform
    | "zipf" -> Loadgen.Zipfian theta
    | s ->
      Printf.eprintf "unknown distribution %S (choose from: uniform, zipf)\n" s;
      exit 2
  in
  let mix = try mix_of mix_s with Failure e -> Printf.eprintf "%s\n" e; exit 2 in
  let loop =
    match rate with Some r -> Loadgen.Open_rate r | None -> Loadgen.Closed
  in
  let scan_pattern =
    match scan_name with
    | "random" -> Loadgen.Random_set
    | "window" -> Loadgen.Window
    | s ->
      Printf.eprintf "unknown scan pattern %S (choose from: random, window)\n"
        s;
      exit 2
  in
  let cfg =
    {
      Loadgen.m;
      r;
      domains;
      dist;
      mix;
      loop;
      scan_pattern;
      warmup_s = seconds_of warmup;
      duration_s = seconds_of duration;
      seed;
    }
  in
  let (module S : Snapshot.S), teardown =
    match mem_backend with
    | "raw" -> (impl_of ~shards ~partition ~open_shard impl_name, fun () -> ())
    | "net" ->
      (* replicated backend: the same Figure 3 code, but every register is
         an ABD quorum register served by [replicas] replica domains over
         the mutex-guarded message transport.  Throughput against
         --mem raw prices the quorum rounds (EXPERIMENTS.md E19). *)
      if impl_name <> "fig3" then begin
        Printf.eprintf
          "--mem net supports --impl fig3 only (the replicated service)\n";
        exit 2
      end;
      let cluster =
        (* + 1 head-room: the spawning domain never operates, but must not
           steal a client node id if an implementation ever reads during
           create *)
        Psnap.Net.Abd.mc_cluster ~clients:(domains + 1) ~replicas ()
      in
      let rdomains =
        List.init replicas (fun i ->
            Domain.spawn (Psnap.Net.Abd.mc_replica_body cluster ~index:i))
      in
      ( (module Mc_net_fig3 : Snapshot.S),
        fun () ->
          Psnap.Net.Abd.mc_stop cluster;
          List.iter Domain.join rdomains )
    | s ->
      Printf.eprintf "unknown backend %S (choose from: raw, net)\n" s;
      exit 2
  in
  let groups = Metrics.[ Serving.group; Net.group; Txn.group ] in
  List.iter Metrics.reset groups;
  let rep = Loadgen.run (module S) cfg in
  teardown ();
  let lat_row kind h =
    [
      kind;
      string_of_int (Histogram.count h);
      (if rep.Loadgen.elapsed_s > 0.0 then
         Printf.sprintf "%.0f"
           (float_of_int (Histogram.count h) /. rep.Loadgen.elapsed_s)
       else "0");
      string_of_int (Histogram.percentile h 50.0);
      string_of_int (Histogram.percentile h 90.0);
      string_of_int (Histogram.percentile h 99.0);
      string_of_int (Histogram.percentile h 99.9);
      string_of_int (Histogram.max_value h);
    ]
  in
  Table.print
    (Table.make
       ~title:
         (Printf.sprintf
            "%s: m=%d r=%d, %d domains, %s, mix %s, %s, %s scans, %.2fs measured -> %.0f ops/s"
            S.name m r domains
            (Loadgen.dist_to_string dist)
            (Loadgen.mix_to_string mix)
            (Loadgen.loop_to_string loop)
            (Loadgen.scan_pattern_to_string scan_pattern)
            rep.Loadgen.elapsed_s (Loadgen.throughput rep))
       ~header:
         [ "op"; "count"; "ops/s"; "p50 ns"; "p90 ns"; "p99 ns"; "p99.9 ns"; "max ns" ]
       [
         lat_row "update" rep.Loadgen.update_lat;
         lat_row "scan" rep.Loadgen.scan_lat;
       ]);
  (* one line per counter group that saw traffic *)
  List.iter
    (fun g ->
      let r = Metrics.read g in
      if List.exists (fun (_, v) -> v > 0) r.Metrics.values then
        Fmt.pr "%a@." Metrics.pp r)
    groups;
  let n c = string_of_int (Metrics.get c) in
  let quorum_ops = Metrics.(get Net.quorum_ops) in
  Option.iter
    (fun path ->
      write_json path
        (Loadgen.json_fields ~impl:S.name cfg rep
        @ [
            ("shards", string_of_int shards);
            ("seed", string_of_int seed);
            ( "open_shard",
              match open_shard with
              | Some s -> string_of_int s
              | None -> "null" );
          ]
        @ Metrics.(fields (read Serving.group))
        @ Metrics.
            [
              ("mem", Printf.sprintf "%S" mem_backend);
              ("replicas", string_of_int replicas);
              ("net_sends", n Net.sends);
              ("net_delivers", n Net.delivers);
              ("quorum_rounds", n Net.quorum_rounds);
              ("quorum_resends", n Net.resends);
              ("quorum_ops", n Net.quorum_ops);
              ( "rounds_per_op",
                if quorum_ops = 0 then "0"
                else
                  Printf.sprintf "%.3f"
                    (float_of_int (get Net.quorum_rounds)
                    /. float_of_int quorum_ops) );
              ("writebacks", n Net.writebacks);
              ("writeback_skips", n Net.writeback_skips);
              ( "mean_quorum_wait",
                Printf.sprintf "%.2f" (Net.mean_quorum_wait ()) );
              ("unavailable_ops", n Net.unavailable);
              ("txn_begins", n Txn.begins);
              ("txn_ro_commits", n Txn.ro_commits);
              ("txn_rw_commits", n Txn.rw_commits);
              ( "txn_retries",
                string_of_int (get Txn.conflicts + get Txn.busy_aborts) );
              ("txn_abort_rate", Printf.sprintf "%.4f" (Txn.abort_rate ()));
            ]);
      Printf.printf "json summary written to %s\n" path)
    json_file;
  0

open Cmdliner

let impl =
  Arg.(
    value & opt string "fig3"
    & info [ "impl" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Implementation: %s."
             (String.concat ", " impl_names)))

let mem_backend =
  Arg.(
    value & opt string "raw"
    & info [ "mem" ] ~docv:"BACKEND"
        ~doc:
          "Memory backend: raw (in-process atomics, the default) or net \
           (ABD quorum registers served by $(b,--replicas) replica \
           domains over the message transport; docs/MODEL.md section 14).")

let replicas =
  Arg.(
    value & opt int 3
    & info [ "replicas" ] ~docv:"N"
        ~doc:"Replica count for $(b,--mem net).")

let shards =
  Arg.(
    value & opt int 8
    & info [ "shards" ] ~docv:"S"
        ~doc:"Shard count for the sharded implementations.")

let partition =
  Arg.(
    value & opt string "rr"
    & info [ "partition" ] ~docv:"P"
        ~doc:"Component placement for sharded: rr (round-robin) or range.")

let m = Arg.(value & opt int 1024 & info [ "m" ] ~doc:"Vector size.")

let r = Arg.(value & opt int 8 & info [ "r" ] ~doc:"Components per scan.")

let domains =
  Arg.(value & opt int 2 & info [ "domains" ] ~docv:"D" ~doc:"Client domains.")

let dist =
  Arg.(
    value & opt string "uniform"
    & info [ "dist" ] ~docv:"NAME" ~doc:"Key popularity: uniform, zipf.")

let theta =
  Arg.(
    value & opt float 0.99
    & info [ "theta" ] ~doc:"Zipf exponent for --dist zipf.")

let mix =
  Arg.(
    value & opt string "50:50"
    & info [ "mix" ] ~docv:"U:S"
        ~doc:
          "Update:scan ratio (e.g. 90:10), or dedicated roles as NuMs \
           (e.g. 1u+1s: one updater domain, one scanner domain).")

let rate =
  Arg.(
    value
    & opt (some float) None
    & info [ "rate" ] ~docv:"OPS"
        ~doc:
          "Open-loop target arrival rate (total ops/s); omit for a \
           closed loop.")

let scan_pattern =
  Arg.(
    value & opt string "random"
    & info [ "scan" ] ~docv:"PAT"
        ~doc:
          "Scan index pattern: random (r independent draws) or window (a \
           contiguous range of r components starting at a drawn base).")

let duration =
  Arg.(
    value & opt string "2s"
    & info [ "duration" ] ~docv:"T"
        ~doc:"Measured run length (e.g. 2s, 500ms).")

let warmup =
  Arg.(
    value & opt string "0.2s"
    & info [ "warmup" ] ~docv:"T"
        ~doc:"Warmup excluded from measurement (e.g. 0.2s).")

let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Workload seed.")

let open_shard =
  Arg.(
    value
    & opt (some int) None
    & info [ "open-shard" ] ~docv:"S"
        ~doc:
          "($(b,--impl resilient) only) Pin shard S's circuit breaker open \
           for the whole run: its scans are served as single-round \
           degraded fragments, demonstrating that an unavailable shard \
           does not inflate the latency of scans on healthy shards.")

let json_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write a machine-readable summary to FILE.")

let reconfig_under_load =
  Arg.(
    value & flag
    & info [ "reconfig-under-load" ]
        ~doc:
          "Run the E21 wall-clock scenario instead of the benchmark: \
           writer domains hammer ABD registers while a majority of the \
           members is permanently killed and replaced one at a time by \
           fenced reconfigurations; reports the availability gap, the \
           epoch chases, and whether the service returned to Atomic \
           (exit 1 on a lost write, an unrecovered domain or a \
           replacement that never landed).")

let spares =
  Arg.(
    value & opt int 2
    & info [ "spares" ] ~docv:"N"
        ~doc:
          "($(b,--reconfig-under-load) only) Spare replicas available for \
           promotion; must cover $(b,--kill).")

let kill_n =
  Arg.(
    value
    & opt (some int) None
    & info [ "kill" ] ~docv:"N"
        ~doc:
          "($(b,--reconfig-under-load) only) Members killed permanently, \
           one replacement each (default: a majority of --replicas).")

let cmd =
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"multicore load generator for partial snapshot objects")
    Term.(
      const run $ impl $ mem_backend $ replicas $ shards $ partition $ m $ r
      $ domains $ dist $ theta $ mix $ rate $ scan_pattern $ duration
      $ warmup $ seed $ open_shard $ json_file $ reconfig_under_load
      $ spares $ kill_n)

let () = exit (Cmd.eval' cmd)
