(* Tests of the experiment harness: workload runner, contention measures
   (against brute force), tables, and experiment-table well-formedness. *)

open Psnap
module Table = Psnap_harness.Table
module Workload = Psnap_harness.Workload
module Instance = Psnap_harness.Instance
module Experiments = Psnap_harness.Experiments

let check_int = Alcotest.(check int)

(* ---- workload runner ---- *)

let base_cfg =
  {
    Workload.impl = Instance.sim "fig3";
    m = 8;
    updaters = 2;
    updates = 5;
    scanners = 2;
    scans = 3;
    r = 3;
    sched = (fun seed -> Scheduler.random ~seed ());
    seeds = 3;
    update_range = None;
    scan_idxs = None;
  }

let test_scan_set () =
  List.iter
    (fun (m, r) ->
      List.iter
        (fun j ->
          let s = Workload.scan_set ~m ~r j in
          check_int "r components" r (Array.length s);
          let sorted = List.sort_uniq compare (Array.to_list s) in
          check_int "distinct" r (List.length sorted);
          List.iter
            (fun i -> Alcotest.(check bool) "in range" true (i >= 0 && i < m))
            sorted)
        [ 0; 1; 2 ])
    [ (8, 3); (64, 8); (16, 16) ]

let test_workload_sample_counts () =
  let o = Workload.run base_cfg in
  check_int "three runs" 3 (List.length o.runs);
  List.iter
    (fun (r : Workload.run) ->
      let count k =
        List.length
          (List.filter (fun (s : Metrics.sample) -> s.kind = k) r.samples)
      in
      check_int "updates recorded" (2 * 5) (count "update");
      check_int "scans recorded" (2 * 3) (count "scan"))
    o.runs;
  Alcotest.(check bool) "collects observed" true (Workload.worst_collects o >= 2);
  Alcotest.(check bool)
    "scan steps positive" true
    (Workload.worst_steps o "scan" > 0)

let test_workload_update_range () =
  (* with update_range = 1, all updates hit component 0; a scan of {0}
     under heavy contention observes that *)
  let cfg =
    {
      base_cfg with
      Workload.update_range = Some 1;
      scan_idxs = Some [| 0 |];
      r = 1;
    }
  in
  let o = Workload.run cfg in
  Alcotest.(check bool) "runs complete" true (List.length o.runs = 3)

(* ---- contention measures vs brute force ---- *)

let sample pid kind (inv, resp) : Metrics.sample =
  { pid; kind; steps = 0; inv; resp }

let brute_point_contention all (s : Metrics.sample) =
  let best = ref 0 in
  for t = s.inv to s.resp do
    let active =
      List.length
        (List.filter
           (fun (o : Metrics.sample) -> o.inv <= t && t <= o.resp)
           all)
    in
    best := max !best active
  done;
  !best

let test_point_contention_brute_force () =
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 50 do
    (* distinct stamps so interval endpoints are unambiguous *)
    let n = 2 + Random.State.int st 8 in
    let stamps =
      List.init (2 * n) (fun i -> (i * 3) + 1)
      |> List.map (fun s -> (Random.State.int st 1000, s))
      |> List.sort compare |> List.map snd
    in
    let rec pair_up = function
      | a :: b :: rest -> (min a b, max a b) :: pair_up rest
      | _ -> []
    in
    let all = List.mapi (fun i iv -> sample i "op" iv) (pair_up stamps) in
    List.iter
      (fun s ->
        check_int "point contention matches brute force"
          (brute_point_contention all s)
          (Metrics.point_contention all s))
      all
  done

let test_interval_contention_simple () =
  let a = sample 0 "op" (0, 10)
  and b = sample 1 "op" (5, 15)
  and c = sample 2 "op" (20, 30) in
  let all = [ a; b; c ] in
  check_int "a overlaps a,b" 2 (Metrics.interval_contention all a);
  check_int "c overlaps only c" 1 (Metrics.interval_contention all c);
  (* three ops overlapping pairwise but never simultaneously *)
  let x = sample 0 "op" (0, 10)
  and y = sample 1 "op" (9, 20)
  and z = sample 2 "op" (19, 30) in
  let all = [ x; y; z ] in
  check_int "interval contention of y" 3 (Metrics.interval_contention all y);
  check_int "point contention of y" 2 (Metrics.point_contention all y)

(* ---- tables ---- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_table_print_and_csv () =
  let t =
    Table.make ~title:"demo" ~header:[ "col"; "x" ]
      [ [ "a"; "1" ]; [ "long-cell"; "22" ] ]
  in
  let buf = Buffer.create 64 in
  let fmt = Format.formatter_of_buffer buf in
  Table.print ~out:fmt t;
  Format.pp_print_flush fmt ();
  let s = Buffer.contents buf in
  Alcotest.(check bool) "title present" true
    (String.length s > 0 && contains s "== demo ==");
  Alcotest.(check string) "csv" "col,x\na,1\nlong-cell,22" (Table.to_csv t);
  Alcotest.(check string) "csv quoting" "a,\"x,y\""
    (Table.to_csv (Table.make ~title:"t" ~header:[ "a"; "x,y" ] []))

(* ---- experiment tables are well-formed ---- *)

let test_experiment_shape () =
  List.iter
    (fun (name, e) ->
      (* smallest seeds for speed; e6/e7 ignore the parameter *)
      let t = e ?seeds:(Some 1) () in
      let cols = List.length t.Table.header in
      Alcotest.(check bool) (name ^ ": has rows") true (t.Table.rows <> []);
      List.iter
        (fun row ->
          check_int (name ^ ": row width matches header") cols (List.length row))
        t.Table.rows)
    Experiments.by_name

let () =
  Alcotest.run "harness"
    [
      ( "workload",
        [
          Alcotest.test_case "scan_set" `Quick test_scan_set;
          Alcotest.test_case "sample counts" `Quick test_workload_sample_counts;
          Alcotest.test_case "update range" `Quick test_workload_update_range;
        ] );
      ( "contention",
        [
          Alcotest.test_case "point vs brute force" `Quick
            test_point_contention_brute_force;
          Alcotest.test_case "interval vs point" `Quick
            test_interval_contention_simple;
        ] );
      ( "table",
        [ Alcotest.test_case "print and csv" `Quick test_table_print_and_csv ] );
      ( "experiments",
        [ Alcotest.test_case "tables well-formed" `Slow test_experiment_shape ]
      );
    ]
