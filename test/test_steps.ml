(* Exact simulator steps of a lone process, pinned layer by layer up the
   store stack Durable (Sharded (fig3)), the paper's cost unit.  A lone
   writer with no scanner pays only the steps that do work:
   - a Figure 3 update is 4 steps: getSet's reads of C and H (no slot to
     read, none newly vacated, so no CAS of C), then the read and the CAS
     of the component's cell;
   - a sharded update is its shard's update, nothing more: the fresh box
     it installs is the version a scan validates;
   - a durable update adds its stripe of the commit lock's read and CAS,
     the WAL append and sync, and the stripe's release: 9.  Two updaters
     of components in different stripes each pay exactly that; two of
     one component do not, the waiter spins on the held stripe.
   A quiet scan of r components inside one shard is its double collect,
   2r reads. *)

open Psnap

module Cfg = struct
  let shards = 8
  let partition = `Range
  let mode = `Validated
end

module Sharded = Runtime.Sharded.Make (Mem.Sim) (Sim_fig3) (Cfg)
module Store = Persist.Durable.Make (Mem.Sim) (Sharded) (Persist.Storage.Sim)

let m = 64

(* [Lone (S).steps ops]: the steps of each of [ops], in order, run by one
   process on a fresh [m]-component object. *)
module Lone (S : Snapshot.S) = struct
  let steps ops =
    Persist.Storage.Sim.reset ();
    Sim.reset_prerun_oids ();
    let t = S.create ~n:1 (Array.init m Fun.id) in
    let out = ref [] in
    let body () =
      let h = S.handle t ~pid:0 in
      List.iter
        (fun op ->
          let s0 = Sim.steps_of 0 in
          op h;
          out := (Sim.steps_of 0 - s0) :: !out)
        ops
    in
    ignore (Sim.run ~sched:(Scheduler.round_robin ()) [| body |]);
    List.rev !out

  (* Updates of components 0, 1 and 0 again: a re-install costs the same
     as the first. *)
  let updates () =
    steps (List.map (fun (i, v) h -> S.update h i v) [ (0, 1); (1, 2); (0, 3) ])
end

(* [Pair (S).steps ops0 ops1]: the steps of each of [ops0] (run by pid
   0) and of [ops1] (run by pid 1), under round-robin, on one fresh
   [m]-component object. *)
module Pair (S : Snapshot.S) = struct
  let steps ops0 ops1 =
    Persist.Storage.Sim.reset ();
    Sim.reset_prerun_oids ();
    let t = S.create ~n:2 (Array.init m Fun.id) in
    let out = [| []; [] |] in
    let body pid ops () =
      let h = S.handle t ~pid in
      List.iter
        (fun op ->
          let s0 = Sim.steps_of pid in
          op h;
          out.(pid) <- (Sim.steps_of pid - s0) :: out.(pid))
        ops
    in
    ignore
      (Sim.run ~sched:(Scheduler.round_robin ()) [| body 0 ops0; body 1 ops1 |]);
    (List.rev out.(0), List.rev out.(1))

  let updates ixs0 ixs1 =
    let ops = List.map (fun i h -> S.update h i (i + 100)) in
    steps (ops ixs0) (ops ixs1)
end

let check_each label expected got =
  Alcotest.(check (list int)) label (List.map (fun _ -> expected) got) got

let test_fig3_update () =
  let module L = Lone (Sim_fig3) in
  check_each "fig3 update: C, H, cell read, cell CAS" 4 (L.updates ())

let test_sharded_update () =
  let module L = Lone (Sharded) in
  check_each "sharded update = its shard's fig3 update" 4 (L.updates ())

let test_durable_update () =
  let module L = Lone (Store) in
  check_each "durable update: lock read + CAS, 4, append, sync, release" 9
    (L.updates ())

(* Components 0..3 sit in stripes 0..3, and in shard 0 together: only
   the commit lock could make them wait. *)
let test_durable_pair_disjoint () =
  let module P = Pair (Store) in
  let s0, s1 = P.updates [ 0; 2; 0 ] [ 1; 3; 1 ] in
  check_each "pid 0: 9 per update, as alone" 9 s0;
  check_each "pid 1: 9 per update, as alone" 9 s1

(* Both take component 0's stripe in the same round: pid 0 wins it and
   pays 9; pid 1's CAS fails, and it reads the held stripe once per round
   until pid 0's release (7 reads), then commits alone: 9 + 1 + 7. *)
let test_durable_pair_same_component () =
  let module P = Pair (Store) in
  let s0, s1 = P.updates [ 0 ] [ 0 ] in
  Alcotest.(check (list int)) "pid 0 wins the stripe" [ 9 ] s0;
  Alcotest.(check (list int)) "pid 1 waits on it" [ 17 ] s1

(* Range placement puts components 0..7 in shard 0. *)
let test_quiet_single_shard_scan () =
  let module L = Lone (Sharded) in
  let rs = List.init 8 (fun k -> k + 1) in
  let got =
    L.steps
      (List.map (fun r h -> ignore (Sharded.scan h (Array.init r Fun.id))) rs)
  in
  Alcotest.(check (list int)) "scan of r components = 2r reads"
    (List.map (fun r -> 2 * r) rs)
    got

let () =
  Alcotest.run "steps"
    [
      ( "lone writer",
        [
          Alcotest.test_case "fig3 update = 4" `Quick test_fig3_update;
          Alcotest.test_case "sharded update = 4" `Quick test_sharded_update;
          Alcotest.test_case "durable update = 9" `Quick test_durable_update;
        ] );
      ( "two writers",
        [
          Alcotest.test_case "durable, different stripes = 9 each" `Quick
            test_durable_pair_disjoint;
          Alcotest.test_case "durable, one component: the waiter spins" `Quick
            test_durable_pair_same_component;
        ] );
      ( "quiet scan",
        [
          Alcotest.test_case "single-shard scan of r = 2r" `Quick
            test_quiet_single_shard_scan;
        ] );
    ]
