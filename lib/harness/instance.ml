(** First-class-module-friendly wrapper around a snapshot implementation:
    one handle per process, exposed as closures so experiment code can hold
    several implementations in one list. *)

type obj = {
  update : pid:int -> int -> int -> unit;
  scan : pid:int -> int array -> int array;
  last_collects : pid:int -> int;
}

type t = { name : string; create : n:int -> int array -> obj }

let of_module (module S : Psnap.Snapshot.S) =
  let create ~n init =
    let t = S.create ~n init in
    let handles = Array.init n (fun pid -> S.handle t ~pid) in
    {
      update = (fun ~pid i v -> S.update handles.(pid) i v);
      scan = (fun ~pid idxs -> S.scan handles.(pid) idxs);
      last_collects = (fun ~pid -> S.last_scan_collects handles.(pid));
    }
  in
  { name = S.name; create }

(** The simulator row of [Psnap.On_sim.snapshots] named [name]. *)
let sim name = of_module (List.assoc name Psnap.On_sim.snapshots)
