(* Tests of the serving layer (lib/runtime): histogram binning and
   percentiles, zipfian sampling, the sharded snapshot's partitioners,
   its cross-shard atomicity and its single-shard fast path and fallback
   (exact checker on small histories and exhaustive interleavings,
   observation checker under a chaos nemesis), the resilient layer's scans
   through the same partitioner, lincheck and exhaustive tests plus their
   collect accounting, and a loadgen smoke run on real domains.  The
   relaxed sharded mode is also driven to an actual linearizability
   violation, so the validated mode's extra round is demonstrably
   load-bearing. *)

open Psnap
open Psnap_harness
module Hist = Psnap.Runtime.Histogram
module Loadgen = Psnap.Runtime.Loadgen
module M = Psnap_sched.Mem_sim

let () = M.set_strict true

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* ---- histogram: binning ---- *)

let test_small_values_exact () =
  for v = 0 to 63 do
    check_int "identity bucket" v (Hist.index_of v);
    check_int "exact midpoint" v (Hist.value_of (Hist.index_of v))
  done

let test_index_monotone_and_bounded_error () =
  let prev = ref (-1) in
  let v = ref 1 in
  while !v < 1 lsl 50 do
    List.iter
      (fun d ->
        let x = !v + d in
        if x > 0 then begin
          let i = Hist.index_of x in
          check_bool "monotone" true (i >= !prev);
          prev := i;
          let lo, w = Hist.bucket_bounds i in
          check_bool "bucket contains value" true (x >= lo && x < lo + w);
          let mid = Hist.value_of i in
          check_bool "relative error <= 1/32" true
            (abs (mid - x) <= max 1 (x / 32))
        end)
      [ -1; 0; 1; 17 ];
    v := !v * 2;
    prev := -1 (* d=-1 of the next octave is below d=17 of this one *)
  done

let test_empty_histogram () =
  let h = Hist.create () in
  check_int "count" 0 (Hist.count h);
  check_int "p50 of empty" 0 (Hist.percentile h 50.0);
  check_int "min" 0 (Hist.min_value h);
  check_int "max" 0 (Hist.max_value h);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Hist.mean h)

let test_single_sample () =
  let h = Hist.create () in
  Hist.record h 123_456;
  List.iter
    (fun p -> check_int "every percentile is the sample" 123_456 (Hist.percentile h p))
    [ 0.0; 50.0; 99.0; 99.9; 100.0 ];
  check_int "count" 1 (Hist.count h);
  check_int "min" 123_456 (Hist.min_value h);
  check_int "max" 123_456 (Hist.max_value h)

let test_percentiles_uniform () =
  let h = Hist.create () in
  for v = 1 to 1000 do
    Hist.record h v
  done;
  let p50 = Hist.percentile h 50.0 in
  check_bool "p50 near 500" true (abs (p50 - 500) <= 500 / 32 + 1);
  check_int "p100 clamps to max" 1000 (Hist.percentile h 100.0);
  let p99 = Hist.percentile h 99.0 in
  check_bool "p99 near 990" true (abs (p99 - 990) <= 990 / 32 + 1)

let test_merge () =
  let a = Hist.create () and b = Hist.create () and direct = Hist.create () in
  for v = 1 to 2000 do
    Hist.record (if v mod 2 = 0 then a else b) (v * 7);
    Hist.record direct (v * 7)
  done;
  let m = Hist.merge a b in
  check_int "count adds" (Hist.count a + Hist.count b) (Hist.count m);
  check_int "sum adds" (Hist.total direct) (Hist.total m);
  check_int "min" (Hist.min_value direct) (Hist.min_value m);
  check_int "max" (Hist.max_value direct) (Hist.max_value m);
  List.iter
    (fun p ->
      check_int "merged percentile = direct percentile"
        (Hist.percentile direct p) (Hist.percentile m p))
    [ 1.0; 50.0; 90.0; 99.0; 99.9 ]

let test_merge_with_empty_is_identity () =
  let a = Hist.create () in
  List.iter (Hist.record a) [ 3; 5000; 70 ];
  let m = Hist.merge a (Hist.create ()) in
  check_int "count" (Hist.count a) (Hist.count m);
  check_int "p50" (Hist.percentile a 50.0) (Hist.percentile m 50.0);
  check_int "max" (Hist.max_value a) (Hist.max_value m)

let test_merge_of_two_empties () =
  let m = Hist.merge (Hist.create ()) (Hist.create ()) in
  check_int "count" 0 (Hist.count m);
  check_int "total" 0 (Hist.total m);
  check_int "min" 0 (Hist.min_value m);
  check_int "max" 0 (Hist.max_value m);
  check_int "percentile of merged empties" 0 (Hist.percentile m 50.0);
  check_bool "no buckets" true (Hist.buckets m = [])

let test_merge_into_empty_dst () =
  let src = Hist.create () in
  List.iter (Hist.record src) [ 10; 20; 30 ];
  let dst = Hist.create () in
  Hist.merge_into ~dst src;
  check_int "count copied" 3 (Hist.count dst);
  check_int "total copied" 60 (Hist.total dst);
  check_int "min copied" 10 (Hist.min_value dst);
  check_int "max copied" 30 (Hist.max_value dst);
  (* and the other direction: merging an empty src is a no-op *)
  Hist.merge_into ~dst (Hist.create ());
  check_int "empty src leaves dst alone" 3 (Hist.count dst);
  check_int "percentiles intact" (Hist.percentile src 50.0)
    (Hist.percentile dst 50.0)

let test_percentile_clamping () =
  let h = Hist.create () in
  for v = 1 to 100 do
    Hist.record h (v * 1000)
  done;
  (* p outside [0..100] behaves exactly like the clamped endpoint *)
  check_int "p < 0 clamps to p0" (Hist.percentile h 0.0)
    (Hist.percentile h (-5.0));
  check_int "p0 is min" (Hist.min_value h) (Hist.percentile h 0.0);
  check_int "p > 100 clamps to p100" (Hist.percentile h 100.0)
    (Hist.percentile h 250.0);
  check_bool "p100 within the observed range" true
    (Hist.percentile h 100.0 <= Hist.max_value h
    && Hist.percentile h 100.0 >= Hist.min_value h);
  (* clamping on an empty histogram stays 0, not an exception *)
  let e = Hist.create () in
  check_int "empty at p<0" 0 (Hist.percentile e (-1.0));
  check_int "empty at p>100" 0 (Hist.percentile e 101.0)

(* ---- zipfian sampler ---- *)

let freqs ~theta ~n ~samples ~seed =
  let z = Loadgen.Zipf.create ~theta ~n in
  let rng = Random.State.make [| seed |] in
  let counts = Array.make n 0 in
  for _ = 1 to samples do
    let i = Loadgen.Zipf.sample z rng in
    check_bool "sample in range" true (i >= 0 && i < n);
    counts.(i) <- counts.(i) + 1
  done;
  counts

let test_zipf_deterministic () =
  let a = freqs ~theta:0.99 ~n:64 ~samples:2000 ~seed:7 in
  let b = freqs ~theta:0.99 ~n:64 ~samples:2000 ~seed:7 in
  check_bool "same seed, same draws" true (a = b)

let test_zipf_head_mass () =
  (* theta=1, n=100: P(rank 0) = 1/H_100 ~ 0.193 *)
  let c = freqs ~theta:1.0 ~n:100 ~samples:10_000 ~seed:1 in
  check_bool "head rank dominates" true (c.(0) > 1_500);
  check_bool "head >> rank 9" true (c.(0) > 3 * c.(9));
  check_bool "ranks decay" true (c.(0) > c.(1) && c.(1) > c.(10))

let test_zipf_theta_zero_is_uniform () =
  let n = 10 in
  let c = freqs ~theta:0.0 ~n ~samples:10_000 ~seed:2 in
  Array.iter
    (fun k -> check_bool "roughly uniform" true (abs (k - 1000) < 300))
    c

(* ---- sharded snapshot: partitioners (sequential, Atomic backend) ---- *)

let sharded_mc ~shards ~partition ~mode :
    (module Snapshot.S) =
  (module Psnap_runtime.Sharded.Make (Mem.Atomic) (Mc_fig3)
            (struct
              let shards = shards
              let partition = partition
              let mode = mode
            end))

(* The resilient layer's supervision knobs, with no backoff: its reads of
   a scratch cell would only lengthen the schedules below. *)
module Quiet_supervision = struct
  let max_rounds = 6
  let backoff_base = 0
  let backoff_max = 0
  let breaker_threshold = 3
  let breaker_cooldown = 4
  let probe_successes = 2
  let heal_quiesce = 64
end

let resilient_mc ~shards ~partition : (module Snapshot.S) =
  let module R =
    Psnap_runtime.Resilient.Make (Mem.Atomic) (Mc_fig3) (Mc_fig3)
      (struct
        let shards = shards
        let partition = partition
        include Quiet_supervision
      end)
  in
  (module R.Snap)

let roundtrip (module S : Snapshot.S) ~m =
  let t = S.create ~n:1 (Array.init m (fun i -> i * 100)) in
  let h = S.handle t ~pid:0 in
  let all = Array.init m Fun.id in
  Alcotest.(check (array int))
    "initial values in index order"
    (Array.init m (fun i -> i * 100))
    (S.scan h all);
  (* overwrite every component through the partitioner, read back both a
     full scan and scattered partial scans *)
  for i = 0 to m - 1 do
    S.update h i ((i * 7) + 1)
  done;
  Alcotest.(check (array int))
    "updated values in index order"
    (Array.init m (fun i -> (i * 7) + 1))
    (S.scan h all);
  let idxs = [| m - 1; 0; m / 2 |] in
  Alcotest.(check (array int))
    "scattered partial scan"
    (Array.map (fun i -> (i * 7) + 1) idxs)
    (S.scan h idxs)

let test_partitioners_roundtrip () =
  List.iter
    (fun partition ->
      (* m=10, shards=3 exercises uneven shard sizes in both layouts *)
      roundtrip (sharded_mc ~shards:3 ~partition ~mode:`Validated) ~m:10;
      roundtrip (sharded_mc ~shards:3 ~partition ~mode:`Relaxed) ~m:10;
      roundtrip (resilient_mc ~shards:3 ~partition) ~m:10;
      (* more shards than components: clamps to one component per shard *)
      roundtrip (sharded_mc ~shards:8 ~partition ~mode:`Validated) ~m:3;
      roundtrip (resilient_mc ~shards:8 ~partition) ~m:3)
    [ `Round_robin; `Range ]

(* ---- exact linearizability on small histories ---- *)

(* Two updaters and a scanner under seeded random schedules; the scanner
   interleaves cross-shard scans with single-component [read]s, each read
   recorded as a one-component scan, so the checker holds reads to the
   same specification. *)
let exact_lincheck (module S : Snapshot.S) =
  let m = 4 in
  let init = Array.init m (fun i -> -(i + 1)) in
  for seed = 0 to 9 do
    let hist = History.create ~now:Sim.mark () in
    Sim.reset_prerun_oids ();
    let t = S.create ~n:3 (Array.copy init) in
    let updater pid () =
      let h = S.handle t ~pid in
      for k = 1 to 2 do
        let i = (k + pid) mod m in
        let v = (pid * 100) + k in
        ignore
          (History.record hist ~pid (Snapshot_spec.Update (i, v)) (fun () ->
               S.update h i v;
               Snapshot_spec.Ack))
      done
    in
    let scanner pid () =
      let h = S.handle t ~pid in
      (* indices 0 and 3 land in different shards under round-robin x4 *)
      let idxs = [| 0; 3 |] in
      for _ = 1 to 2 do
        ignore
          (History.record hist ~pid (Snapshot_spec.Scan idxs) (fun () ->
               Snapshot_spec.Vals (S.scan h idxs)));
        Array.iter
          (fun i ->
            ignore
              (History.record hist ~pid (Snapshot_spec.Scan [| i |])
                 (fun () -> Snapshot_spec.Vals [| S.read h i |])))
          idxs
      done
    in
    ignore
      (Sim.run
         ~sched:(Scheduler.random ~seed ())
         [| updater 0; updater 1; scanner 2 |]);
    check_bool
      (Printf.sprintf "%s, seed %d linearizable (exact checker)" S.name seed)
      true
      (Snapshot_spec.check ~init (History.entries hist))
  done

let test_exact_lincheck () =
  List.iter exact_lincheck
    [
      (module Sim_fig3);
      (module Sim_fig1);
      (module Sim_sharded_fig3);
      (module Sim_resilient_fig3.Snap);
    ]

(* ---- cross-shard scans: every interleaving of a tiny config ---- *)

module Sim_sharded_range2 =
  Psnap_runtime.Sharded.Make (Mem.Sim) (Sim_fig3)
    (struct
      let shards = 2
      let partition = `Range
      let mode = `Validated
    end)

(* Its shards run the non-blocking partial snapshot, whose update and
   read are one step each: the double collect under test only uses the
   shards' reads, and each read already costs a pointer read besides. *)
module Sim_resilient_range2 =
  Psnap_runtime.Resilient.Make (Mem.Sim) (Sim_nonblocking) (Sim_nonblocking)
    (struct
      let shards = 2
      let partition = `Range
      include Quiet_supervision
    end)

(* pid 0 applies [updates] in order, then, with [read_back], reads each
   updated component once; pid 1 reads components 0 and 1 with
   [scan_of].  [run] returns the interleavings explored and how many of
   them the exact checker rejected, and calls [on_complete] after each
   complete execution (prefix replays are not complete executions). *)
module Explore_pair (S : Snapshot.S) = struct
  let run ?(on_complete = ignore) ?(read_back = false) ~updates scan_of =
    let init = [| -1; -2 |] in
    let schedules = ref 0 and rejected = ref 0 in
    let make () =
      let hist = History.create ~now:Sim.mark () in
      Sim.reset_prerun_oids ();
      let t = S.create ~n:2 (Array.copy init) in
      let updater () =
        let h = S.handle t ~pid:0 in
        List.iter
          (fun (i, v) ->
            ignore
              (History.record hist ~pid:0 (Snapshot_spec.Update (i, v))
                 (fun () ->
                   S.update h i v;
                   Snapshot_spec.Ack)))
          updates;
        if read_back then
          List.iter
            (fun (i, _) ->
              ignore
                (History.record hist ~pid:0 (Snapshot_spec.Scan [| i |])
                   (fun () -> Snapshot_spec.Vals [| S.read h i |])))
            updates
      in
      let scanner () =
        let h = S.handle t ~pid:1 in
        ignore
          (History.record hist ~pid:1 (Snapshot_spec.Scan [| 0; 1 |])
             (fun () -> Snapshot_spec.Vals (scan_of h)))
      in
      ( [| updater; scanner |],
        fun () ->
          incr schedules;
          on_complete ();
          if not (Snapshot_spec.check ~init (History.entries hist)) then
            incr rejected )
    in
    ignore (Explore.run ~make ());
    (!schedules, !rejected)
end

(* component 0, then component 1: a scan reading 0 before the first
   update and 1 after the second sees a cut that never existed *)
let both = [ (0, 10); (1, 11) ]

(* The two components live in different shards.  The scan runs against
   each update sequence in [runs]; the single collect against [both]. *)
let cross_shard_exhaustive ((module S : Snapshot.S), runs) =
  let module Cross_pair = Explore_pair (S) in
  List.iter
    (fun updates ->
      let schedules, rejected =
        Cross_pair.run ~updates (fun h -> S.scan h [| 0; 1 |])
      in
      check_bool
        (Printf.sprintf "%s double collect: %d interleavings explored" S.name
           schedules)
        true (schedules >= 100);
      check_int "double collect: every interleaving linearizable" 0 rejected)
    runs;
  (* the same reads without the second collect: the checker must catch
     the torn cut (old component 0, new component 1) *)
  let _, rejected =
    Cross_pair.run ~updates:both (fun h ->
        let v0 = S.read h 0 in
        [| v0; S.read h 1 |])
  in
  check_bool
    (Printf.sprintf "%s single collect convicted in %d interleavings" S.name
       rejected)
    true (rejected > 0)

(* A resilient collect reads twice as many cells, so its scan meets one
   update at a time: against both, the space outgrows the test budget. *)
let test_cross_shard_exhaustive () =
  List.iter cross_shard_exhaustive
    [
      ((module Sim_sharded_range2), [ both ]);
      ((module Sim_resilient_range2.Snap), List.map (fun u -> [ u ]) both);
    ]

(* ---- cross-shard scans: a retry costs one collect ---- *)

(* The scanner (pid 0) takes the first [head] steps, then the updater
   (pid 1) runs to completion, then the scanner finishes. *)
let scanner_then_updater ~head =
  let picks = ref 0 in
  {
    Scheduler.name = "collect-update-collect";
    pick =
      (fun v ->
        incr picks;
        if !picks > head && Scheduler.is_runnable v 1 then Scheduler.Run 1
        else Scheduler.Run 0);
  }

let test_retry_accounting () =
  let module S = Sim_sharded_range2 in
  Sim.reset_prerun_oids ();
  let t = S.create ~n:2 [| -1; -2 |] in
  let rounds = ref 0 and collects = ref 0 and out = ref [||] in
  let scanner () =
    let h = S.handle t ~pid:0 in
    out := S.scan h [| 0; 1 |];
    rounds := S.last_scan_rounds h;
    collects := S.last_scan_collects h
  in
  let updater () = S.update (S.handle t ~pid:1) 1 7 in
  let retries0 = Psnap_sched.Metrics.(get Serving.scan_retries) in
  (* the scan's first collect (two reads), then the whole update, then
     the rest of the scan *)
  ignore (Sim.run ~sched:(scanner_then_updater ~head:2) [| scanner; updater |]);
  Alcotest.(check (array int)) "scan sees the update" [| -1; 7 |] !out;
  check_int "last_scan_rounds" 3 !rounds;
  check_int "last_scan_collects" 3 !collects;
  check_int "one retry counted" 1
    (Psnap_sched.Metrics.(get Serving.scan_retries) - retries0)

(* The same accounting through the resilient layer, where each read of a
   collect also reads its shard's pointer: a quiet cross-shard scan is
   two collects and no sub-scan, and an update landing between the first
   two collects costs one more. *)
let test_resilient_accounting () =
  let module S = Sim_resilient_range2 in
  let run ~interfere =
    Sim.reset_prerun_oids ();
    let t = S.create ~n:2 [| -1; -2 |] in
    let counts = ref (0, 0) and out = ref [||] in
    let scanner () =
      let h = S.handle t ~pid:0 in
      (match S.scan_outcome h [| 0; 1 |] with
      | S.Atomic vs -> out := vs
      | S.Degraded _ -> Alcotest.fail "scan degraded");
      counts := (S.last_scan_rounds h, S.last_scan_collects h)
    in
    let updater () = if interfere then S.update (S.handle t ~pid:1) 1 7 in
    let retries0 = Psnap_sched.Metrics.(get Serving.scan_retries) in
    (* the scan's first collect (two pointer reads, two reads), then the
       whole update, then the rest of the scan *)
    ignore
      (Sim.run ~sched:(scanner_then_updater ~head:4) [| scanner; updater |]);
    (!out, !counts, Psnap_sched.Metrics.(get Serving.scan_retries) - retries0)
  in
  let out, (rounds, collects), retries = run ~interfere:false in
  Alcotest.(check (array int)) "quiet scan" [| -1; -2 |] out;
  check_int "quiet: last_scan_rounds" 2 rounds;
  check_int "quiet: last_scan_collects, no sub-scan" 2 collects;
  check_int "quiet: no retry" 0 retries;
  let out, (rounds, collects), retries = run ~interfere:true in
  Alcotest.(check (array int)) "scan sees the update" [| -1; 7 |] out;
  check_int "interfered: last_scan_rounds" 3 rounds;
  check_int "interfered: last_scan_collects, no sub-scan" 3 collects;
  check_int "interfered: one retry counted" 1 retries

(* With its epoch cell stuck, shard 1 draws the same epoch for two
   updates of component 1; only their boxes tell them apart.  The scanner
   (pid 0) takes its first collect and the first read of its second,
   then the updater (pid 1) sets component 0 and then component 1, then
   the scanner reads component 1 again.  Accepting that on epochs alone
   would return component 0 before its update beside component 1 after
   its update: a cut that never existed. *)
let test_resilient_stuck_epoch_nonce () =
  let module S = Sim_resilient_range2 in
  M.set_fault_tracking true;
  Fun.protect ~finally:(fun () -> M.set_fault_tracking false) @@ fun () ->
  Sim.reset_prerun_oids ();
  let t = S.create ~n:2 [| -1; -2 |] in
  let primed = ref false and out = ref [||] in
  let scanner () = out := S.scan (S.handle t ~pid:0) [| 0; 1 |] in
  let updater () =
    let h = S.handle t ~pid:1 in
    S.update h 1 5;
    primed := true;
    S.update h 0 7;
    S.update h 1 9
  in
  (* the updater's first update, six scanner steps (a pointer read and a
     read per component), the rest of the updater, then the scanner *)
  let picks = ref 0 in
  let script =
    {
      Scheduler.name = "prime-collect-update-collect";
      pick =
        (fun v ->
          if not !primed then Scheduler.Run 1
          else begin
            incr picks;
            if !picks <= 6 || not (Scheduler.is_runnable v 1) then
              Scheduler.Run 0
            else Scheduler.Run 1
          end);
    }
  in
  ignore
    (Sim.run
       ~sched:
         (Scheduler.mem_fault_on_cell ~kind:Event.Stuck_cell
            ~name_prefix:"rshard1.epoch" script)
       [| scanner; updater |]);
  check_bool "the epoch repeated" true
    (Psnap_sched.Metrics.(get Serving.stuck_epochs) > 0);
  Alcotest.(check (array int)) "scan returns a state that existed" [| 7; 9 |]
    !out

(* ---- single-shard scans: a double collect, a sub-scan on interference ---- *)

module Sim_sharded_one =
  Psnap_runtime.Sharded.Make (Mem.Sim) (Sim_fig3)
    (struct
      let shards = 1
      let partition = `Range
      let mode = `Validated
    end)

(* The same single-shard path through the resilient layer: one shard,
   whose breaker stays closed, running the non-blocking partial snapshot
   (as [Sim_resilient_range2] does) to keep the interleavings few. *)
module Sim_resilient_one =
  Psnap_runtime.Resilient.Make (Mem.Sim) (Sim_nonblocking) (Sim_nonblocking)
    (struct
      let shards = 1
      let partition = `Range
      include Quiet_supervision
    end)

(* Every interleaving of one scan with one update and the updater's read
   of the component it set, for an update of either component: the
   update lands before, inside or after the fast path's double collect,
   so both paths are reached (a scan that returned after two collects
   took the fast path).  (With two updates the fallback's sub-scan and
   the updater's helping make the space too large to enumerate; the
   chaos campaigns cover that concurrency.) *)
let single_shard_exhaustive (module S : Snapshot.S) =
  let module One_pair = Explore_pair (S) in
  let fast = ref 0 and fallback = ref 0 and collects = ref 0 in
  let on_complete () = incr (if !collects = 2 then fast else fallback) in
  List.iter
    (fun update ->
      let schedules, rejected =
        One_pair.run ~on_complete ~read_back:true ~updates:[ update ] (fun h ->
            let vals = S.scan h [| 0; 1 |] in
            collects := S.last_scan_collects h;
            vals)
      in
      check_bool
        (Printf.sprintf "%s single shard: %d interleavings explored" S.name
           schedules)
        true (schedules >= 100);
      check_int "single shard: every interleaving linearizable" 0 rejected)
    both;
  check_bool (Printf.sprintf "fast path taken in %d" !fast) true (!fast > 0);
  check_bool
    (Printf.sprintf "sub-scan fallback taken in %d" !fallback)
    true (!fallback > 0)

let test_single_shard_exhaustive () =
  List.iter single_shard_exhaustive
    [ (module Sim_sharded_one); (module Sim_resilient_one.Snap) ];
  (* the same reads without the second collect, against both updates *)
  let module One_pair = Explore_pair (Sim_sharded_one) in
  let _, rejected =
    One_pair.run ~updates:both (fun h ->
        let v0 = Sim_sharded_one.read h 0 in
        [| v0; Sim_sharded_one.read h 1 |])
  in
  check_bool
    (Printf.sprintf "single collect convicted in %d interleavings" rejected)
    true (rejected > 0)

(* The single-shard accounting of the resilient layer: a quiet scan is two
   collects and no sub-scan; an update landing between them costs one
   fallback sub-scan, counted in [scan_fallbacks], and the scan still
   reports its two collects as rounds, within the budget. *)
let test_resilient_single_shard_accounting () =
  let module S = Sim_resilient_one in
  let run ~interfere =
    Sim.reset_prerun_oids ();
    let t = S.create ~n:2 [| -1; -2 |] in
    let counts = ref (0, 0) and out = ref [||] in
    let scanner () =
      let h = S.handle t ~pid:0 in
      (match S.scan_outcome h [| 0; 1 |] with
      | S.Atomic vs -> out := vs
      | S.Degraded _ -> Alcotest.fail "scan degraded");
      counts := (S.last_scan_rounds h, S.last_scan_collects h)
    in
    let updater () = if interfere then S.update (S.handle t ~pid:1) 1 7 in
    let fallbacks0 = Psnap_sched.Metrics.(get Serving.scan_fallbacks) in
    (* the scan's first collect (one pointer read, two reads), then the
       whole update, then the rest of the scan *)
    ignore
      (Sim.run ~sched:(scanner_then_updater ~head:3) [| scanner; updater |]);
    (!out, !counts, Psnap_sched.Metrics.(get Serving.scan_fallbacks) - fallbacks0)
  in
  let out, (rounds, collects), fallbacks = run ~interfere:false in
  Alcotest.(check (array int)) "quiet scan" [| -1; -2 |] out;
  check_int "quiet: last_scan_rounds" 2 rounds;
  check_int "quiet: last_scan_collects, no sub-scan" 2 collects;
  check_int "quiet: no fallback" 0 fallbacks;
  let out, (rounds, collects), fallbacks = run ~interfere:true in
  Alcotest.(check (array int)) "scan sees the update" [| -1; 7 |] out;
  check_int "interfered: the two collects are its rounds" 2 rounds;
  check_bool "interfered: within the budget" true
    (rounds <= Quiet_supervision.max_rounds);
  (* an uncontended sub-scan stops after its first two collects *)
  check_int "interfered: last_scan_collects, 2 + the sub-scan's 2" 4 collects;
  check_int "interfered: one fallback counted" 1 fallbacks

(* Single-shard scans against a starved scanner: the updater takes many
   steps between two of the scanner's, so updates land inside the fast
   path's double collect and inside the fallback's sub-scan, where the
   updater helps it.  The exact checker judges every history. *)
let test_single_shard_starved () =
  let module S = Sim_sharded_one in
  let init = [| -1; -2 |] in
  let fallbacks0 = Psnap_sched.Metrics.(get Serving.scan_fallbacks) in
  for seed = 0 to 19 do
    let hist = History.create ~now:Sim.mark () in
    Sim.reset_prerun_oids ();
    let t = S.create ~n:2 (Array.copy init) in
    let updater () =
      let h = S.handle t ~pid:0 in
      for k = 1 to 6 do
        let i = k mod 2 and v = 10 * k in
        ignore
          (History.record hist ~pid:0 (Snapshot_spec.Update (i, v)) (fun () ->
               S.update h i v;
               Snapshot_spec.Ack))
      done
    in
    let scanner () =
      let h = S.handle t ~pid:1 in
      for _ = 1 to 3 do
        ignore
          (History.record hist ~pid:1 (Snapshot_spec.Scan [| 0; 1 |])
             (fun () -> Snapshot_spec.Vals (S.scan h [| 0; 1 |])))
      done
    in
    ignore
      (Sim.run
         ~sched:(Scheduler.starve ~victims:[ 1 ] ~seed ())
         [| updater; scanner |]);
    check_bool
      (Printf.sprintf "seed %d linearizable (exact checker)" seed)
      true
      (Snapshot_spec.check ~init (History.entries hist))
  done;
  check_bool "the starved scans fell back" true
    (Psnap_sched.Metrics.(get Serving.scan_fallbacks) > fallbacks0)

let test_fallback_accounting () =
  let module S = Sim_sharded_one in
  Sim.reset_prerun_oids ();
  let t = S.create ~n:2 [| -1; -2 |] in
  let rounds = ref 0 and collects = ref 0 and out = ref [||] in
  let scanner () =
    let h = S.handle t ~pid:0 in
    out := S.scan h [| 0; 1 |];
    rounds := S.last_scan_rounds h;
    collects := S.last_scan_collects h
  in
  let updater () = S.update (S.handle t ~pid:1) 1 7 in
  let fallbacks0 = Psnap_sched.Metrics.(get Serving.scan_fallbacks) in
  let retries0 = Psnap_sched.Metrics.(get Serving.scan_retries) in
  (* the fast path's first collect (two reads), then the whole update,
     then a disagreeing second collect and one uncontended sub-scan *)
  ignore (Sim.run ~sched:(scanner_then_updater ~head:2) [| scanner; updater |]);
  Alcotest.(check (array int)) "scan sees the update" [| -1; 7 |] !out;
  check_int "last_scan_rounds: two collects and the sub-scan" 3 !rounds;
  (* an uncontended fig3 sub-scan stops after its first two collects *)
  check_int "last_scan_collects: 2 + the sub-scan's 2" 4 !collects;
  check_int "one fallback counted" 1
    (Psnap_sched.Metrics.(get Serving.scan_fallbacks) - fallbacks0);
  check_int "the fallback counts as one retry" 1
    (Psnap_sched.Metrics.(get Serving.scan_retries) - retries0)

(* ---- sharded snapshot: chaos-nemesis campaign (observation checker) ---- *)

let test_sharded_linearizable_under_chaos () =
  let m = 8 and n = 3 in
  let init = Array.init m (fun i -> -(i + 1)) in
  let restarts = ref 0 in
  for seed = 0 to 24 do
    let hist = History.create ~now:Sim.mark () in
    Sim.reset_prerun_oids ();
    let t = Sim_sharded_fig3.create ~n (Array.copy init) in
    let updater ~incarnation pid () =
      let h = Sim_sharded_fig3.handle t ~pid in
      for k = 1 to 6 do
        let i = (k + (pid * 3)) mod m in
        let v = (pid * 1_000_000) + (incarnation * 10_000) + k in
        ignore
          (History.record hist ~pid (Snapshot_spec.Update (i, v)) (fun () ->
               Sim_sharded_fig3.update h i v;
               Snapshot_spec.Ack))
      done
    in
    let scanner pid () =
      let h = Sim_sharded_fig3.handle t ~pid in
      (* four scans spanning three of the four shards, then four staying
         inside shard 1 *)
      for k = 1 to 8 do
        let idxs = if k <= 4 then [| 0; 2; 5 |] else [| 1; 5 |] in
        ignore
          (History.record hist ~pid (Snapshot_spec.Scan idxs) (fun () ->
               Snapshot_spec.Vals (Sim_sharded_fig3.scan h idxs)))
      done
    in
    let body ~incarnation pid =
      if pid < n - 1 then updater ~incarnation pid else scanner pid
    in
    let recover ~pid ~incarnation = body ~incarnation pid in
    let res =
      Sim.run ~recover
        ~sched:(Scheduler.chaos ~seed ~rate:0.08 ~max_restart_delay:12 ())
        (Array.init n (body ~incarnation:1))
    in
    restarts :=
      !restarts + Array.fold_left (fun a i -> a + (i - 1)) 0 res.incarnations;
    let viols = Snapshot_spec.check_observations ~init (History.entries hist) in
    if viols <> [] then
      Alcotest.failf "seed %d: %a" seed
        Fmt.(list ~sep:comma Snapshot_spec.pp_violation)
        (List.filteri (fun i _ -> i < 3) viols)
  done;
  check_bool "campaign injected restarts" true (!restarts > 0)

(* ---- relaxed mode really is weaker: drive it to a violation ---- *)

module Sim_sharded_relaxed =
  Psnap_runtime.Sharded.Make (Mem.Sim) (Sim_fig3)
    (struct
      let shards = 3
      let partition = `Round_robin
      let mode = `Relaxed
    end)

let test_relaxed_mode_violates () =
  let m = 32 in
  let init = Array.init m (fun i -> -(i + 1)) in
  let violations = ref 0 in
  for seed = 0 to 4 do
    let hist = History.create ~now:Sim.mark () in
    Sim.reset_prerun_oids ();
    let t = Sim_sharded_relaxed.create ~n:5 (Array.copy init) in
    let updater pid () =
      let h = Sim_sharded_relaxed.handle t ~pid in
      for k = 1 to 30 do
        let i = (k + (pid * 7)) mod m in
        let v = (pid * 1_000_000) + k in
        ignore
          (History.record hist ~pid (Snapshot_spec.Update (i, v)) (fun () ->
               Sim_sharded_relaxed.update h i v;
               Snapshot_spec.Ack))
      done
    in
    let scanner pid () =
      let h = Sim_sharded_relaxed.handle t ~pid in
      let idxs = [| 0; 1; 2; 9; 10; 17; 25; 30 |] in
      for _ = 1 to 8 do
        ignore
          (History.record hist ~pid (Snapshot_spec.Scan idxs) (fun () ->
               Snapshot_spec.Vals (Sim_sharded_relaxed.scan h idxs)))
      done
    in
    ignore
      (Sim.run
         ~sched:(Scheduler.random ~seed ())
         [| updater 0; updater 1; updater 2; scanner 3; scanner 4 |]);
    violations :=
      !violations
      + List.length
          (Snapshot_spec.check_observations ~init (History.entries hist))
  done;
  check_bool "relaxed cross-shard scans are observably non-atomic" true
    (!violations > 0)

(* ---- E17: the committed ddmin-shrunk witness still reproduces ---- *)

(* `dune runtest` runs from the test directory inside _build (where the
   dune deps clause stages the schedule one level up); `dune exec` runs
   from the workspace root. *)
let e17_witness =
  if Sys.file_exists "schedules/e17-sharded-relaxed.sched" then
    "schedules/e17-sharded-relaxed.sched"
  else "../schedules/e17-sharded-relaxed.sched"

let test_e17_witness_replays () =
  let decisions = Shrink.load e17_witness in
  check_bool "witness committed and shrunk" true
    (decisions <> [] && List.length decisions <= 60);
  (* exactly the simulate.exe workload the witness was shrunk against —
     replay is only meaningful against the same program *)
  let sc =
    Scenario.flat (module Sim_sharded_relaxed)
      { Scenario.m = 32; r = 8; updaters = 3; updates = 30; scanners = 2;
        scans = 8 }
      ~check:true
  in
  let sched = Campaign.replay_sched decisions in
  let viols = (Campaign.execute sc ~sched).Campaign.violations in
  check_bool "shrunk witness still drives a relaxed violation" true
    (viols <> [])

(* ---- loadgen smoke on real domains ---- *)

let test_loadgen_smoke () =
  let rep =
    Loadgen.run
      (module Mc_fig3)
      {
        Loadgen.default with
        m = 64;
        r = 4;
        domains = 2;
        warmup_s = 0.02;
        duration_s = 0.1;
      }
  in
  check_bool "did updates" true (rep.Loadgen.updates > 0);
  check_bool "did scans" true (rep.Loadgen.scans > 0);
  check_bool "positive throughput" true (Loadgen.throughput rep > 0.0);
  check_int "histograms match counters" rep.Loadgen.updates
    (Hist.count rep.Loadgen.update_lat)

let test_loadgen_validates_config () =
  let bad cfg =
    match Loadgen.run (module Mc_fig3) cfg with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "r > m rejected" true
    (bad { Loadgen.default with m = 4; r = 8 });
  check_bool "dedicated roles must sum to domains" true
    (bad
       {
         Loadgen.default with
         domains = 2;
         mix = Loadgen.Dedicated { updaters = 2; scanners = 2 };
       });
  check_bool "open-loop rate must be positive" true
    (bad { Loadgen.default with loop = Loadgen.Open_rate 0.0 })

let () =
  Alcotest.run "runtime"
    [
      ( "histogram",
        [
          Alcotest.test_case "small values exact" `Quick test_small_values_exact;
          Alcotest.test_case "monotone, bounded error" `Quick
            test_index_monotone_and_bounded_error;
          Alcotest.test_case "empty" `Quick test_empty_histogram;
          Alcotest.test_case "single sample" `Quick test_single_sample;
          Alcotest.test_case "uniform percentiles" `Quick
            test_percentiles_uniform;
          Alcotest.test_case "merge = direct" `Quick test_merge;
          Alcotest.test_case "merge with empty" `Quick
            test_merge_with_empty_is_identity;
          Alcotest.test_case "merge of two empties" `Quick
            test_merge_of_two_empties;
          Alcotest.test_case "merge_into with empty dst" `Quick
            test_merge_into_empty_dst;
          Alcotest.test_case "percentile clamping" `Quick
            test_percentile_clamping;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "deterministic" `Quick test_zipf_deterministic;
          Alcotest.test_case "head mass" `Quick test_zipf_head_mass;
          Alcotest.test_case "theta=0 uniform" `Quick
            test_zipf_theta_zero_is_uniform;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "partitioners roundtrip" `Quick
            test_partitioners_roundtrip;
          Alcotest.test_case "exact lincheck, small histories" `Quick
            test_exact_lincheck;
          Alcotest.test_case "cross-shard scan, every interleaving" `Quick
            test_cross_shard_exhaustive;
          Alcotest.test_case "retry costs one collect" `Quick
            test_retry_accounting;
          Alcotest.test_case "resilient: retry costs one collect" `Quick
            test_resilient_accounting;
          Alcotest.test_case "resilient: nonces tell stuck epochs apart"
            `Quick test_resilient_stuck_epoch_nonce;
          Alcotest.test_case "single-shard scan, every interleaving" `Quick
            test_single_shard_exhaustive;
          Alcotest.test_case "resilient: single-shard fallback accounting"
            `Quick test_resilient_single_shard_accounting;
          Alcotest.test_case "single-shard scan, starved scanner" `Quick
            test_single_shard_starved;
          Alcotest.test_case "interference costs one sub-scan" `Quick
            test_fallback_accounting;
          Alcotest.test_case "linearizable under chaos (25 seeds)" `Quick
            test_sharded_linearizable_under_chaos;
          Alcotest.test_case "e17 witness replays to a violation" `Quick
            test_e17_witness_replays;
          Alcotest.test_case "relaxed mode violates" `Quick
            test_relaxed_mode_violates;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "smoke (2 domains)" `Quick test_loadgen_smoke;
          Alcotest.test_case "config validation" `Quick
            test_loadgen_validates_config;
        ] );
    ]
