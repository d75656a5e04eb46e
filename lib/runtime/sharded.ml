(* Sharded partial snapshot: partition m components across independent
   snapshot instances, with epoch-validated double-collect scans (inside
   one shard, a fallback to one sub-scan keeps them wait-free).

   See sharded.mli for the atomicity argument and docs/MODEL.md §10 for
   why a separate per-shard epoch *cell* read around the reads would be
   unsound (a writer suspended between its epoch bump and its data write
   masks itself) — the epoch here is installed *inside* the shard,
   atomically with the value, so one linearizable [S.read] returns data
   and version information together. *)

module type CONFIG = sig
  val shards : int

  val partition : [ `Round_robin | `Range ]

  val mode : [ `Validated | `Relaxed ]
end

module Make
    (M : Psnap_mem.Mem_intf.S)
    (S : Psnap_snapshot.Snapshot_intf.S)
    (C : CONFIG) =
struct
  let relaxed = C.mode = `Relaxed

  let name =
    Printf.sprintf "sharded-%dx%s%s%s" C.shards S.name
      (match C.partition with `Round_robin -> "" | `Range -> "/range")
      (if relaxed then "/relaxed" else "")

  type 'a t = {
    sub : (int * 'a) S.t array;  (** per-shard instances storing
                                     (epoch, value) pairs *)
    epochs : int M.ref_ array;  (** per-shard epoch source: every update
                                    draws a fresh shard-unique epoch by
                                    fetch&increment *)
    place : Placement.t;  (** [min C.shards m] shards: none is empty *)
    m : int;
  }

  type 'a handle = {
    t : 'a t;
    hs : (int * 'a) S.handle array;
    mutable collects : int;
    mutable rounds : int;  (** rounds of the most recent scan: 1 for a
                               relaxed cross-shard scan, else its collects
                               plus one for a single-shard fallback *)
  }

  let create ~n init =
    let m = Array.length init in
    if m = 0 then invalid_arg "Sharded.create: empty";
    if C.shards < 1 then invalid_arg "Sharded.create: shards < 1";
    let place = Placement.make C.partition ~shards:C.shards ~m in
    let nshards = Placement.nshards place in
    let sub =
      Array.init nshards (fun s ->
          S.create ~n
            (Array.init (Placement.size place s) (fun j ->
                 (0, init.(Placement.global place s j)))))
    in
    (* drawn epochs start at 1, so they never collide with the initial 0 *)
    let epochs =
      Array.init nshards (fun s ->
          M.make ~name:(Printf.sprintf "shard%d.epoch" s) 1)
    in
    { sub; epochs; place; m }

  let handle t ~pid =
    {
      t;
      hs = Array.map (fun st -> S.handle st ~pid) t.sub;
      collects = 0;
      rounds = 0;
    }

  let update h i v =
    let t = h.t in
    if i < 0 || i >= t.m then invalid_arg "Sharded.update: index";
    let s, j = Placement.locate t.place i in
    let e = M.fetch_and_add t.epochs.(s) 1 in
    S.update h.hs.(s) j (e, v)

  (* [`Relaxed] mode across shards: one sub-scan per touched shard, in
     shard order, each an atomic fragment of its own shard. *)
  let fragments h locs =
    let all = List.init (Array.length locs) Fun.id in
    let out = ref [||] in
    for s = 0 to Array.length h.t.sub - 1 do
      match List.filter (fun k -> fst locs.(k) = s) all with
      | [] -> ()
      | here ->
        let pos = Array.of_list here in
        let vals = S.scan h.hs.(s) (Array.map (fun k -> snd locs.(k)) pos) in
        h.collects <- h.collects + S.last_scan_collects h.hs.(s);
        if Array.length !out = 0 then
          out := Array.make (Array.length locs) (snd vals.(0));
        Array.iteri (fun p k -> !out.(k) <- snd vals.(p)) pos
    done;
    h.rounds <- 1;
    !out

  (* One collect of the requested [(epoch, value)] pairs, one [S.read]
     each; every collect is a round. *)
  let collect h locs =
    h.rounds <- h.rounds + 1;
    Array.map (fun (s, j) -> S.read h.hs.(s) j) locs

  (* Typed, so each epoch comparison is an integer compare, not a call
     to the polymorphic [compare]. *)
  let agree (a : (int * _) array) (b : (int * _) array) =
    let rec go k = k < 0 || (fst a.(k) = fst b.(k) && go (k - 1)) in
    go (Array.length a - 1)

  (* Double collect of single-component reads: collects until two
     consecutive ones agree on every epoch, then the second one's values. *)
  let double_collect h locs =
    let[@psnap.bounded
         "lock-free, not wait-free: every retry is forced by an install of \
          a fresh epoch into a requested component"] rec settle prev =
      let cur = collect h locs in
      if agree prev cur then Array.map snd cur else settle cur
    in
    let vals = settle (collect h locs) in
    h.collects <- h.rounds;
    vals

  (* A scan inside shard [s]: one double collect, and only if an update
     interfered, one sub-scan of the shard (a third round), which is
     linearizable on its own and wait-free if [S] is. *)
  let single_shard h s locs =
    let first = collect h locs in
    let second = collect h locs in
    if agree first second then begin
      h.collects <- 2;
      Array.map snd second
    end
    else begin
      Psnap_sched.Metrics.(incr Serving.scan_fallbacks);
      let vals = S.scan h.hs.(s) (Array.map snd locs) in
      h.rounds <- h.rounds + 1;
      h.collects <- 2 + S.last_scan_collects h.hs.(s);
      Array.map snd vals
    end

  let scan h idxs =
    let t = h.t in
    h.collects <- 0;
    h.rounds <- 0;
    if Array.length idxs = 0 then [||]
    else begin
      let locs =
        Array.map
          (fun i ->
            if i < 0 || i >= t.m then invalid_arg "Sharded.scan: index";
            Placement.locate t.place i)
          idxs
      in
      let s0 = fst locs.(0) in
      let out =
        if Array.for_all (fun (s, _) -> s = s0) locs then single_shard h s0 locs
        else if relaxed then fragments h locs
        else double_collect h locs
      in
      Psnap_sched.Metrics.(add Serving.scan_rounds h.rounds);
      if h.rounds > 2 then
        Psnap_sched.Metrics.(add Serving.scan_retries (h.rounds - 2));
      out
    end

  let read h i =
    let t = h.t in
    if i < 0 || i >= t.m then invalid_arg "Sharded.read: index";
    let s, j = Placement.locate t.place i in
    snd (S.read h.hs.(s) j)

  let last_scan_collects h = h.collects

  let last_scan_rounds h = h.rounds
end
