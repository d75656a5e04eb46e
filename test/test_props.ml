(* Property-based concurrent testing: qcheck generates whole workload
   configurations (vector size, process mix, operation counts, scan widths,
   scheduler family and seed); each case runs a full simulated execution
   and checks the recorded history.  One property per implementation for
   snapshots (observation checker) and one per active set implementation
   (interval-semantics checker); plus one over WAL frames. *)

open Psnap

module type SNAP = Snapshot.S

module type ASET = Active_set.S

type workload = {
  m : int;
  updaters : int;
  updates : int;
  scanners : int;
  scans : int;
  r : int;
  sched_kind : int;  (** 0 random, 1 bursty, 2 starve-scanners, 3 pct *)
  seed : int;
  crash_clock : int option;
}

let workload_gen =
  QCheck2.Gen.(
    let* m = int_range 1 12 in
    let* updaters = int_range 1 3 in
    let* updates = int_range 1 20 in
    let* scanners = int_range 1 3 in
    let* scans = int_range 1 8 in
    let* r = int_range 1 m in
    let* sched_kind = int_range 0 3 in
    let* seed = int_range 0 10_000 in
    let* crash_clock =
      oneof [ return None; map (fun c -> Some c) (int_range 0 300) ]
    in
    return { m; updaters; updates; scanners; scans; r; sched_kind; seed; crash_clock })

let print_workload w =
  Printf.sprintf
    "{m=%d updaters=%d updates=%d scanners=%d scans=%d r=%d sched=%d seed=%d crash=%s}"
    w.m w.updaters w.updates w.scanners w.scans w.r w.sched_kind w.seed
    (match w.crash_clock with None -> "-" | Some c -> string_of_int c)

let scheduler_of w =
  let scanner_pids =
    List.init w.scanners (fun j -> w.updaters + j)
  in
  let base =
    match w.sched_kind with
    | 0 -> Scheduler.random ~seed:w.seed ()
    | 1 -> Scheduler.bursty ~seed:w.seed ()
    | 2 -> Scheduler.starve ~victims:scanner_pids ~seed:w.seed ()
    | _ -> Scheduler.pct ~seed:w.seed ~expected_steps:500 ()
  in
  match w.crash_clock with
  | None -> base
  | Some at_clock -> Scheduler.with_crash ~pid:0 ~at_clock base

let snapshot_prop ?(mixed = false) name (module S : SNAP) =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "history valid%s: %s"
         (if mixed then " (mixed roles)" else "")
         name)
    ~count:60 ~print:print_workload workload_gen (fun w ->
      let n = w.updaters + w.scanners in
      let init = Array.init w.m (fun i -> -(i + 1)) in
      let hist = History.create ~now:Sim.mark () in
      let t = S.create ~n (Array.copy init) in
      let do_update h pid k =
        let i = (k + pid) mod w.m in
        let v = (pid * 100_000) + k in
        ignore
          (History.record hist ~pid (Snapshot_spec.Update (i, v)) (fun () ->
               S.update h i v;
               Snapshot_spec.Ack))
      in
      let do_scan h pid =
        let idxs = Array.init w.r (fun k -> (k + pid) mod w.m) in
        let idxs = Array.of_list (List.sort_uniq compare (Array.to_list idxs)) in
        ignore
          (History.record hist ~pid (Snapshot_spec.Scan idxs) (fun () ->
               Snapshot_spec.Vals (S.scan h idxs)))
      in
      let updater pid () =
        let h = S.handle t ~pid in
        for k = 1 to w.updates do
          do_update h pid k
        done
      in
      let scanner pid () =
        let h = S.handle t ~pid in
        for _ = 1 to w.scans do
          do_scan h pid
        done
      in
      (* a process that interleaves its own updates and scans: its scans
         must cope with its own earlier writes being visible everywhere *)
      let mixer pid () =
        let h = S.handle t ~pid in
        for k = 1 to min w.updates 8 do
          do_update h pid k;
          do_scan h pid
        done
      in
      let procs =
        Array.init n (fun pid ->
            if mixed && pid = 0 then mixer pid
            else if pid < w.updaters then updater pid
            else scanner pid)
      in
      ignore (Sim.run ~sched:(scheduler_of w) procs);
      Snapshot_spec.check_observations ~init (History.entries hist) = [])

let aset_prop name (module A : ASET) =
  QCheck2.Test.make ~name:("getSets valid: " ^ name) ~count:60
    ~print:print_workload workload_gen (fun w ->
      let members = w.updaters and observers = w.scanners in
      let n = members + observers in
      let hist = History.create ~now:Sim.mark () in
      let t = A.create ~n () in
      let member pid () =
        let h = A.handle t ~pid in
        for _ = 1 to w.updates do
          ignore
            (History.record hist ~pid Activeset_check.Join (fun () ->
                 A.join h;
                 Activeset_check.Ack));
          ignore
            (History.record hist ~pid Activeset_check.Leave (fun () ->
                 A.leave h;
                 Activeset_check.Ack))
        done
      in
      let observer pid () =
        for _ = 1 to w.scans do
          ignore
            (History.record hist ~pid Activeset_check.Get_set (fun () ->
                 Activeset_check.Set (A.get_set t)))
        done
      in
      let procs =
        Array.init n (fun pid -> if pid < members then member pid else observer pid)
      in
      ignore (Sim.run ~sched:(scheduler_of w) procs);
      Activeset_check.check (History.entries hist) = [])

(* scan results never contain values from the wrong component, under any
   generated workload (redundant with the checker, but self-contained) *)
let values_belong_prop =
  QCheck2.Test.make ~name:"scan values belong to their component" ~count:40
    ~print:print_workload workload_gen (fun w ->
      let module S = Sim_fig3 in
      let n = w.updaters + w.scanners in
      let t = S.create ~n (Array.init w.m (fun i -> -(i + 1))) in
      let ok = ref true in
      let updater pid () =
        let h = S.handle t ~pid in
        for k = 1 to w.updates do
          let i = (k + pid) mod w.m in
          (* value encodes its component *)
          S.update h i ((i * 1_000_000) + (pid * 1_000) + k)
        done
      in
      let scanner pid () =
        let h = S.handle t ~pid in
        let idxs = Array.init w.r (fun k -> (k * 7) mod w.m) in
        let idxs = Array.of_list (List.sort_uniq compare (Array.to_list idxs)) in
        for _ = 1 to w.scans do
          let vs = S.scan h idxs in
          Array.iteri
            (fun k v ->
              if v >= 0 && v / 1_000_000 <> idxs.(k) then ok := false
              else if v < 0 && v <> -(idxs.(k) + 1) then ok := false)
            vs
        done
      in
      let procs =
        Array.init n (fun pid ->
            if pid < w.updaters then updater pid else scanner pid)
      in
      ignore (Sim.run ~sched:(scheduler_of w) procs);
      !ok)

(* WAL frames: a random record list round-trips through [encode] and
   [decode_all], and every strict prefix of its log — what a power loss
   can leave — decodes to the whole frames before the cut, torn unless the
   cut falls between two frames. *)
let wal_record_gen =
  let module Wal = Persist.Wal in
  QCheck2.Gen.(
    let payload =
      oneof
        [
          map (fun (v : int) -> Marshal.to_string v []) int;
          map (fun (s : string) -> Marshal.to_string s []) string_small;
          map
            (fun (a : int array) -> Marshal.to_string a [])
            (array_size (int_range 0 20) int);
        ]
    in
    let* kind = int_range 0 3 in
    match kind with
    | 0 ->
      let* lsn = int and* pid = int and* index = int and* payload = payload in
      return (Wal.Update { lsn; pid; index; payload })
    | 1 ->
      let* gen = int and* payload = payload in
      return (Wal.Scan_seal { gen; payload })
    | 2 ->
      let* gen = int and* next_lsn = int in
      return (Wal.Checkpoint_begin { gen; next_lsn })
    | _ ->
      let* gen = int in
      return (Wal.Checkpoint_end { gen }))

let wal_prop =
  let module Wal = Persist.Wal in
  QCheck2.Test.make ~name:"wal frames round-trip, prefixes tear at a frame"
    ~count:100
    ~print:(fun rs -> Fmt.str "%a" Fmt.(Dump.list Wal.pp_record) rs)
    QCheck2.Gen.(list_size (int_range 0 8) wal_record_gen)
    (fun records ->
      let frames = List.map Wal.encode records in
      let log = String.concat "" frames in
      let whole = Wal.decode_all log in
      (* [ends.(k)]: the log offset after the first [k] frames *)
      let ends =
        Array.of_list
          (List.rev
             (List.fold_left
                (fun acc f -> (List.hd acc + String.length f) :: acc)
                [ 0 ] frames))
      in
      let prefix_ok cut =
        let d = Wal.decode_all (String.sub log 0 cut) in
        let k = ref 0 in
        while ends.(!k + 1) <= cut do
          incr k
        done;
        d.Wal.good_bytes = ends.(!k)
        && d.Wal.records = List.filteri (fun i _ -> i < !k) records
        && d.Wal.damage = if cut = ends.(!k) then Wal.Clean else Wal.Torn
      in
      whole.Wal.damage = Wal.Clean
      && whole.Wal.records = records
      && whole.Wal.good_bytes = String.length log
      && List.for_all prefix_ok (List.init (String.length log) Fun.id))

let snapshot_impls : (string * (module SNAP)) list =
  [
    ("afek", (module Sim_afek));
    ("fig1", (module Sim_fig1));
    ("fig3", (module Sim_fig3));
    ("fig1-small", (module Sim_fig1_small));
    ("fig3-small", (module Sim_fig3_small));
    ("farray", (module Sim_farray));
    ("nonblocking", (module Sim_nonblocking));
    ("fig1-adaptive", (module Sim_fig1_adaptive));
  ]

let aset_impls : (string * (module ASET)) list =
  [
    ("bounded", (module Sim_aset_bounded));
    ("fai-cas", (module Sim_aset_fai));
    ("fai-cas-small", (module Sim_aset_fai_small));
    ("farray-aset", (module Sim_aset_farray));
    ("splitter-tree", (module Sim_aset_splitter));
  ]

let () =
  Alcotest.run "props"
    [
      ( "snapshots",
        List.map
          (fun (n, m) -> QCheck_alcotest.to_alcotest (snapshot_prop n m))
          snapshot_impls );
      ( "snapshots-mixed-roles",
        List.map
          (fun (n, m) ->
            QCheck_alcotest.to_alcotest (snapshot_prop ~mixed:true n m))
          snapshot_impls );
      ( "active-sets",
        List.map
          (fun (n, m) -> QCheck_alcotest.to_alcotest (aset_prop n m))
          aset_impls );
      ( "values",
        [ QCheck_alcotest.to_alcotest values_belong_prop ] );
      ("wal", [ QCheck_alcotest.to_alcotest wal_prop ]);
    ]
