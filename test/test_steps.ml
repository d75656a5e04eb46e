(* Exact simulator steps of a lone process, pinned layer by layer up the
   store stack Durable (Sharded (fig3)), the paper's cost unit.  A lone
   writer with no scanner pays only the steps that do work:
   - a Figure 3 update is 4 steps: getSet's reads of C and H (no slot to
     read, none newly vacated, so no CAS of C), then the read and the CAS
     of the component's cell;
   - a sharded update is its shard's update, nothing more: the fresh box
     it installs is the version a scan validates;
   - a durable update adds the commit lock's read and CAS, the WAL
     append and sync, and the lock's release: 9.
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
      ( "quiet scan",
        [
          Alcotest.test_case "single-shard scan of r = 2r" `Quick
            test_quiet_single_shard_scan;
        ] );
    ]
