(* Exact simulator step counts for a workload's stack: n = 2 client
   processes split the head of the stream (even operations to pid 0, odd
   to pid 1) under a seeded random scheduler.  Steps per operation are the
   paper's cost unit and include helping.  The head is replayed in chunks,
   each on a fresh object, and each chunk's history is fed to the snapshot
   oracle (whose cost grows faster than linearly with history length). *)

open Psnap

type result = {
  update_steps : float;
  scan_steps : float;
  violations : int;
  ops : int;
}

let chunk = 500

module Make (S : Snapshot.S) = struct
  (* [fresh ()] builds a fresh object and completes the two client bodies
     into the simulated system (the ABD stack adds its replica
     processes). *)
  let run ~(fresh : unit -> int S.t * ((unit -> unit) array -> (unit -> unit) array))
      ~init (s : Stream.t) ~ops ~seed =
    if ops > Array.length s.Stream.is_update then invalid_arg "Steps.run: ops";
    let rec_ = Metrics.create () in
    let violations = ref 0 in
    for c = 0 to (ops / chunk) - 1 do
      let t, procs = fresh () in
      let hist = History.create ~now:Sim.mark () in
      let client pid () =
        let h = S.handle t ~pid in
        let j = ref ((c * chunk) + pid) in
        while !j < (c + 1) * chunk do
          let j' = !j in
          if s.Stream.is_update.(j') then begin
            let i = s.Stream.key.(j') and v = s.Stream.value.(j') in
            Metrics.measure rec_ ~pid ~kind:"update" (fun () ->
                ignore
                  (History.record hist ~pid (Snapshot_spec.Update (i, v))
                     (fun () ->
                       S.update h i v;
                       Snapshot_spec.Ack)))
          end
          else begin
            let idxs = s.Stream.idxs.(j') in
            Metrics.measure rec_ ~pid ~kind:"scan" (fun () ->
                ignore
                  (History.record hist ~pid (Snapshot_spec.Scan idxs) (fun () ->
                       Snapshot_spec.Vals (S.scan h idxs))))
          end;
          j := j' + 2
        done
      in
      ignore
        (Sim.run
           ~sched:(Scheduler.random ~seed:((seed * 1000) + c) ())
           (procs [| client 0; client 1 |]));
      violations :=
        !violations
        + List.length (Snapshot_spec.check_observations ~init (History.entries hist))
    done;
    let mean kind = Metrics.mean_steps (Metrics.by_kind rec_ kind) in
    {
      update_steps = mean "update";
      scan_steps = mean "scan";
      violations = !violations;
      ops = List.length (Metrics.samples rec_);
    }
end
