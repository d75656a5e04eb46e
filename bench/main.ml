(* The benchmark harness: regenerates every experiment table of
   EXPERIMENTS.md.

   Part 1 (E1-E7) runs on the step-counting simulator — machine-independent
   step counts, the cost unit of the paper's theorems.
   Part 2 (E8) measures wall-clock operation latency of the Atomic-backed
   implementations with Bechamel; multi-domain throughput is perfbench's
   and the loadgen's (EXPERIMENTS.md E16).  Run with
   `dune exec bench/main.exe`. *)

open Psnap
module Table = Psnap_harness.Table
module Experiments = Psnap_harness.Experiments

(* ---- E8: bechamel latency of uncontended operations ---- *)

let bechamel_tests () =
  let open Bechamel in
  let m = 256 in
  let r = 8 in
  let idxs = Array.init r (fun k -> k * 31 mod m) in
  let mk_update name (module S : Snapshot.S) =
    let t = S.create ~n:1 (Array.init m (fun i -> i)) in
    let h = S.handle t ~pid:0 in
    let k = ref 0 in
    Test.make ~name:(name ^ "/update")
      (Staged.stage (fun () ->
           incr k;
           S.update h (!k mod m) !k))
  in
  let mk_scan name (module S : Snapshot.S) =
    let t = S.create ~n:1 (Array.init m (fun i -> i)) in
    let h = S.handle t ~pid:0 in
    Test.make ~name:(Printf.sprintf "%s/scan r=%d" name r)
      (Staged.stage (fun () -> ignore (S.scan h idxs)))
  in
  let mk_full name (module S : Snapshot.S) =
    let t = S.create ~n:1 (Array.init m (fun i -> i)) in
    let h = S.handle t ~pid:0 in
    let all = Array.init m (fun i -> i) in
    Test.make ~name:(Printf.sprintf "%s/scan r=m=%d" name m)
      (Staged.stage (fun () -> ignore (S.scan h all)))
  in
  (* the two figures and the two baselines they are priced against *)
  let impls = select [ "afek"; "fig1"; "fig3"; "farray" ] On_mc.snapshots in
  (* the restricted single-writer/single-scanner object (related work) *)
  let module SS = On_mc.Single_scanner in
  let ss_tests =
    let t =
      SS.create ~owner:(Array.make m 0) ~scanner:0 (Array.init m (fun i -> i))
    in
    let h = SS.handle t ~pid:0 in
    let k = ref 0 in
    [
      Test.make ~name:"sw-ss/update"
        (Staged.stage (fun () ->
             incr k;
             SS.update h (!k mod m) !k));
      Test.make
        ~name:(Printf.sprintf "sw-ss/scan r=%d" r)
        (Staged.stage (fun () -> ignore (SS.scan h idxs)));
    ]
  in
  Test.make_grouped ~name:"snapshot"
    (List.concat_map
       (fun (name, m') -> [ mk_update name m'; mk_scan name m'; mk_full name m' ])
       impls
    @ ss_tests)

let run_bechamel () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results = Analyze.all ols (List.hd instances) raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (e :: _) -> e
          | _ -> nan
        in
        let r2 =
          match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
        in
        [ name; Printf.sprintf "%.1f" ns; Printf.sprintf "%.4f" r2 ] :: acc)
      results []
    |> List.sort compare
  in
  Table.print
    (Table.make
       ~title:
         "E8  Wall-clock latency, uncontended (Atomic backend, m=256, bechamel OLS)"
       ~header:[ "operation"; "ns/op"; "r^2" ]
       rows)

let () =
  print_endline "Partial snapshot objects (SPAA'08) - experiment suite";
  print_endline "Step counts below are exact shared-memory accesses in the";
  print_endline "simulator; see EXPERIMENTS.md for the paper-vs-measured discussion.";
  List.iter Table.print (Experiments.all ());
  run_bechamel ()
