(* The exhaustive checker: [Explore.run] exhausts every interleaving of a
   small Figure 3 configuration on the simulator — an updater process
   against a partial-scanner process, as in the exhaustive test suite —
   and the exact snapshot linearizability oracle checks each complete
   execution.  No serving layer runs: simulator replay and the oracle do
   all the work.  The traced run of store-scan-heavy measures it. *)

open Psnap

exception Violation

(* A two-process configuration: one updater process, one partial-scanner
   process. *)
type config = {
  init : int array;
  updates : (int * int) list;
  scans : int array list;
  updater : int;  (** pid of the updater; the scanner is the other one *)
}

(* The measured configuration: one update of component 0 against one
   partial scan of it, m = 2 — 60 858 schedules. *)
let sound = { init = [| -1; -2 |]; updates = [ (0, 7) ]; scans = [ [| 0 |] ]; updater = 0 }

(* Two updates in order against a scan of both, with the scanner as pid 0:
   depth-first search reaches the new/old inversion after about 1 500
   schedules. *)
let unsound =
  { init = [| -1; -2 |]; updates = [ (0, 10); (1, 11) ]; scans = [ [| 0; 1 |] ]; updater = 1 }

let ops_per_execution cfg = List.length cfg.updates + List.length cfg.scans

type result = {
  schedules : int;
  wall_ns : int;
  check_ns : int;  (** time inside the oracle *)
  upd_steps : int;  (** own simulator steps of every update *)
  scan_steps : int;
  violation : bool;
}

module Make (S : Snapshot.S) = struct
  let name = S.name

  (* [exhaust ~oracle cfg] explores every schedule of [cfg], or the first
     [max_runs] complete ones; with [oracle] off the histories are recorded
     but not checked.  Stops at the first violation. *)
  let exhaust ?max_runs ~oracle cfg =
    let check_ns = ref 0 in
    let upd_steps = ref 0 and scan_steps = ref 0 in
    let make () =
      let hist = History.create ~now:Sim.mark () in
      let t = S.create ~n:2 (Array.copy cfg.init) in
      let up = cfg.updater and sp = 1 - cfg.updater in
      let us = ref 0 and ss = ref 0 in
      let counted ~pid steps f =
        let s0 = Sim.steps_of pid in
        f ();
        steps := !steps + Sim.steps_of pid - s0
      in
      let updater () =
        let h = S.handle t ~pid:up in
        List.iter
          (fun (i, v) ->
            counted ~pid:up us (fun () ->
                ignore
                  (History.record hist ~pid:up (Snapshot_spec.Update (i, v))
                     (fun () ->
                       S.update h i v;
                       Snapshot_spec.Ack))))
          cfg.updates
      in
      let scanner () =
        let h = S.handle t ~pid:sp in
        List.iter
          (fun idxs ->
            counted ~pid:sp ss (fun () ->
                ignore
                  (History.record hist ~pid:sp (Snapshot_spec.Scan idxs)
                     (fun () -> Snapshot_spec.Vals (S.scan h idxs)))))
          cfg.scans
      in
      let check () =
        upd_steps := !upd_steps + !us;
        scan_steps := !scan_steps + !ss;
        if oracle then begin
          let t0 = Tracing.now () in
          let ok = Snapshot_spec.check ~init:cfg.init (History.entries hist) in
          check_ns := !check_ns + Tracing.now () - t0;
          if not ok then raise Violation
        end
      in
      ((if up = 0 then [| updater; scanner |] else [| scanner; updater |]), check)
    in
    let t0 = Tracing.now () in
    let schedules, violation =
      match Explore.run ?max_runs ~make () with
      | n -> (n, false)
      | exception Explore.Too_many_runs n -> (n - 1, false)
      | exception Violation -> (0, true)
    in
    {
      schedules;
      wall_ns = Tracing.now () - t0;
      check_ns = !check_ns;
      upd_steps = !upd_steps;
      scan_steps = !scan_steps;
      violation;
    }
end

module Plain = Make (Sim_fig3)

(* Counts every executed simulator step (one per base-object access). *)
module SM =
  Shims.Mem
    (Mem.Sim)
    (struct
      let span = false
    end)

module Traced = Make (Snapshot.Fig3 (SM) (Active_set.Fai_cas (SM)))

(* A deliberately unsound mode the library ships: relaxed (unvalidated)
   cross-shard scans over two fig3 shards.  The checker must convict it on
   [unsound]. *)
module Unsound =
  Make
    (Runtime.Sharded.Make (Mem.Sim) (Sim_fig3)
       (struct
         let shards = 2
         let partition = `Round_robin
         let mode = `Relaxed
       end))
