(* Sharded partial snapshot: partition m components across independent
   snapshot instances, with double-collect scans validated by the
   identity of what each component holds (inside one shard, a fallback
   to one sub-scan keeps them wait-free).

   See sharded.mli for the atomicity argument and docs/MODEL.md §10 for
   why a separate per-shard epoch *cell* read around the reads would be
   unsound (a writer suspended between its epoch bump and its data write
   masks itself) — the version here is the stored box itself, installed
   *inside* the shard by the update's one [S.update], so one
   linearizable [S.read] returns data and version together.

   The validated scan itself is [Scan], parameterised by how a
   component's box is read and how a shard is sub-scanned: [Make]
   applies it to its plain shards, Resilient to its supervised ones. *)

type 'a box = { v : 'a }

(* [Sys.opaque_identity] keeps an optimising compiler from sharing one
   static box between installs of the same constant. *)
let box v = { v = Sys.opaque_identity v }

module type SOURCE = sig
  type 'a h

  val reader : 'a h -> int * int -> 'a box

  val sub_scan : 'a h -> int -> int array -> 'a box array
end

module Scan (X : SOURCE) = struct
  (* One collect of the requested boxes, one read each through
     [X.reader h], which is made as the collect begins. *)
  let collect h locs = Array.map (X.reader h) locs

  (* Agreement is identity: every install stores a fresh box. *)
  let agree (a : _ box array) b =
    let rec go k = k < 0 || (a.(k) == b.(k) && go (k - 1)) in
    go (Array.length a - 1)

  let values bs = Array.map (fun b -> b.v) bs

  (* Double collect of single-component reads: collects until two
     consecutive ones agree on every box or [budget] collects ran, calling
     [between] with the collects so far before each retry; the last
     collect, with the positions, ascending, whose boxes it changed. *)
  let settle ?(budget = max_int) ?(between = ignore) h locs =
    let[@psnap.bounded
         "lock-free, not wait-free: every retry is forced by an install of \
          a fresh box into a requested component, and [budget] caps the \
          collects"] rec go prev n =
      let cur = collect h locs in
      if agree prev cur then (cur, [])
      else if n >= budget then
        (cur, List.filter (fun k -> prev.(k) != cur.(k))
                (List.init (Array.length cur) Fun.id))
      else begin
        between n;
        go cur (n + 1)
      end
    in
    go (collect h locs) 2

  (* A scan inside shard [s]: one double collect, and only if an update
     interfered, one sub-scan of the shard, which is linearizable on its
     own and wait-free if the shard is. *)
  let single_shard h s locs =
    let first = collect h locs in
    let second = collect h locs in
    if agree first second then values second
    else begin
      Psnap_sched.Metrics.(incr Serving.scan_fallbacks);
      values (X.sub_scan h s (Array.map snd locs))
    end

  (* The shards holding requested components, ascending. *)
  let shards locs =
    List.sort_uniq Int.compare (Array.to_list (Array.map fst locs))

  (* Positions, ascending, of the requested components whose shard
     satisfies [keep]. *)
  let positions locs keep =
    List.init (Array.length locs) Fun.id
    |> List.filter (fun k -> keep (fst locs.(k)))
    |> Array.of_list

  (* One sub-scan per shard of [ss], each an atomic fragment of its own
     shard, then the requested values: each part pairs positions with the
     boxes read for them, [parts] first. *)
  let scatter ?(parts = []) h locs ss =
    let subs =
      List.map
        (fun s ->
          let pos = positions locs (Int.equal s) in
          (pos, X.sub_scan h s (Array.map (fun k -> snd locs.(k)) pos)))
        ss
    in
    let parts = parts @ subs in
    let out = Array.make (Array.length locs) (snd (List.hd parts)).(0).v in
    List.iter
      (fun (pos, row) -> Array.iteri (fun p k -> out.(k) <- row.(p).v) pos)
      parts;
    out

  let count rounds =
    Psnap_sched.Metrics.(add Serving.scan_rounds rounds);
    if rounds > 2 then
      Psnap_sched.Metrics.(add Serving.scan_retries (rounds - 2))
end

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
    sub : 'a box S.t array;  (** per-shard instances storing boxes, a
                                 fresh one per install *)
    place : Placement.t;  (** [min C.shards m] shards: none is empty *)
  }

  type 'a handle = {
    t : 'a t;
    hs : 'a box S.handle array;
    mutable collects : int;
    mutable rounds : int;  (** rounds of the most recent scan: 1 for a
                               relaxed cross-shard scan, else its collects
                               plus one for a single-shard fallback *)
  }

  let create ~n init =
    let m = Array.length init in
    let place = Placement.make C.partition ~shards:C.shards ~m in
    let sub =
      Array.map
        (fun vs -> S.create ~n (Array.map box vs))
        (Placement.split place init)
    in
    { sub; place }

  let handle t ~pid =
    {
      t;
      hs = Array.map (fun st -> S.handle st ~pid) t.sub;
      collects = 0;
      rounds = 0;
    }

  let update h i v =
    let s, j = Placement.locate h.t.place i in
    S.update h.hs.(s) j (box v)

  (* Every collect is a round, and so is every sub-scan. *)
  module Core = Scan (struct
    type nonrec 'a h = 'a handle

    (* arity 1 after the [let], so [reader h] is a closure whose calls
       go straight to [S.read] *)
    let reader h =
      h.rounds <- h.rounds + 1;
      h.collects <- h.collects + 1;
      let hs = h.hs in
      fun (s, j) -> S.read hs.(s) j

    let sub_scan h s js =
      let vals = S.scan h.hs.(s) js in
      h.rounds <- h.rounds + 1;
      h.collects <- h.collects + S.last_scan_collects h.hs.(s);
      vals
  end)

  let scan h idxs =
    let t = h.t in
    h.collects <- 0;
    h.rounds <- 0;
    if Array.length idxs = 0 then [||]
    else begin
      let locs = Array.map (fun i -> Placement.locate t.place i) idxs in
      let s0 = fst locs.(0) in
      let out =
        if Array.for_all (fun (s, _) -> s = s0) locs then
          Core.single_shard h s0 locs
        else if relaxed then begin
          (* one sub-scan per touched shard, no validation: one round *)
          let vals = Core.scatter h locs (Core.shards locs) in
          h.rounds <- 1;
          vals
        end
        else Core.values (fst (Core.settle h locs))
      in
      Core.count h.rounds;
      out
    end

  let read h i =
    let s, j = Placement.locate h.t.place i in
    (S.read h.hs.(s) j).v

  let last_scan_collects h = h.collects

  let last_scan_rounds h = h.rounds
end
