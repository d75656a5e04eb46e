(* Quickstart: a partial snapshot object shared by four domains.

   Run with: dune exec examples/quickstart.exe

   The object stores m = 1024 integer components.  Three domains update
   disjoint regions concurrently; the main domain repeatedly performs
   atomic partial scans of a handful of components scattered across the
   vector.  Each scan costs O(r^2) shared-memory operations regardless of
   m — the paper's "local" guarantee — and is linearizable: it reflects a
   single instant of the whole vector. *)

module S = Psnap.On_mc.Fig3

let () =
  let m = 1024 in
  let n_updaters = 3 in
  let t = S.create ~n:(n_updaters + 1) (Array.make m 0) in

  let stop = Atomic.make false in
  let updaters =
    List.init n_updaters (fun d ->
        Domain.spawn (fun () ->
            let h = S.handle t ~pid:d in
            let k = ref 0 in
            while not (Atomic.get stop) do
              incr k;
              (* each updater owns a third of the vector *)
              let i = (d * (m / n_updaters)) + (!k mod (m / n_updaters)) in
              S.update h i !k
            done))
  in

  let h = S.handle t ~pid:n_updaters in
  let idxs = [| 7; 341; 342; 700; 1023 |] in
  for round = 1 to 5 do
    let values = S.scan h idxs in
    Printf.printf "scan %d:" round;
    Array.iteri (fun j i -> Printf.printf "  [%d]=%d" i values.(j)) idxs;
    print_newline ()
  done;

  Atomic.set stop true;
  List.iter Domain.join updaters;

  (* a full snapshot is just the partial scan of everything *)
  let all = S.scan h (Array.init m (fun i -> i)) in
  let sum = Array.fold_left ( + ) 0 all in
  Printf.printf "final full snapshot: m=%d, sum=%d\n" m sum
