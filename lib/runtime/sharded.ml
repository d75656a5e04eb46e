(* Sharded partial snapshot: partition m components across independent
   snapshot instances, with epoch-validated cross-shard scans.

   See sharded.mli for the atomicity argument and docs/MODEL.md §10 for
   why a separate per-shard epoch *cell* read around the sub-scans would
   be unsound (a writer suspended between its epoch bump and its data
   write masks itself) — the epoch here is installed *inside* the shard,
   atomically with the value, so the per-shard sub-scan reads data and
   version information in one linearizable operation. *)

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
    nshards : int;  (** [min C.shards m]: no shard is ever empty *)
    m : int;
    q : int;  (** range partition: base block size [m / nshards] *)
    rem : int;  (** range partition: the first [rem] shards get [q+1] *)
  }

  type 'a handle = {
    t : 'a t;
    hs : (int * 'a) S.handle array;
    mutable collects : int;
    mutable rounds : int;  (** validation rounds of the most recent scan *)
  }

  (* component i -> (shard, local index) *)
  let locate t i =
    match C.partition with
    | `Round_robin -> (i mod t.nshards, i / t.nshards)
    | `Range ->
      let cut = t.rem * (t.q + 1) in
      if i < cut then (i / (t.q + 1), i mod (t.q + 1))
      else
        let j = i - cut in
        (t.rem + (j / t.q), j mod t.q)

  let create ~n init =
    let m = Array.length init in
    if m = 0 then invalid_arg "Sharded.create: empty";
    if C.shards < 1 then invalid_arg "Sharded.create: shards < 1";
    let nshards = min C.shards m in
    let q = m / nshards and rem = m mod nshards in
    let size s =
      match C.partition with
      | `Round_robin -> (m - s + nshards - 1) / nshards
      | `Range -> if s < rem then q + 1 else q
    in
    (* inverse of [locate]: the global index of shard [s]'s slot [j] *)
    let global s j =
      match C.partition with
      | `Round_robin -> (j * nshards) + s
      | `Range ->
        if s < rem then (s * (q + 1)) + j
        else (rem * (q + 1)) + ((s - rem) * q) + j
    in
    let sub =
      Array.init nshards (fun s ->
          S.create ~n (Array.init (size s) (fun j -> (0, init.(global s j)))))
    in
    (* drawn epochs start at 1, so they never collide with the initial 0 *)
    let epochs =
      Array.init nshards (fun s ->
          M.make ~name:(Printf.sprintf "shard%d.epoch" s) 1)
    in
    { sub; epochs; nshards; m; q; rem }

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
    let s, j = locate t i in
    let e = M.fetch_and_add t.epochs.(s) 1 in
    S.update h.hs.(s) j (e, v)

  let scan h idxs =
    let t = h.t in
    let len = Array.length idxs in
    h.collects <- 0;
    h.rounds <- 0;
    if len = 0 then [||]
    else begin
      Array.iter
        (fun i -> if i < 0 || i >= t.m then invalid_arg "Sharded.scan: index")
        idxs;
      (* group the requested components by shard, remembering each one's
         slot in the output vector *)
      let locs = Array.make t.nshards [] in
      for k = len - 1 downto 0 do
        let s, j = locate t idxs.(k) in
        locs.(s) <- (j, k) :: locs.(s)
      done;
      let touched = ref [] in
      for s = t.nshards - 1 downto 0 do
        if locs.(s) <> [] then touched := s :: !touched
      done;
      let touched = Array.of_list !touched in
      let nt = Array.length touched in
      let sub_idx =
        Array.map (fun s -> Array.of_list (List.map fst locs.(s))) touched
      in
      let sub_pos =
        Array.map (fun s -> Array.of_list (List.map snd locs.(s))) touched
      in
      (* one round: a partial scan of every touched shard.  Each sub-scan
         is linearizable on its own; rounds execute sequentially. *)
      let round () =
        h.rounds <- h.rounds + 1;
        Array.init nt (fun k ->
            let r = S.scan h.hs.(touched.(k)) sub_idx.(k) in
            h.collects <- h.collects + S.last_scan_collects h.hs.(touched.(k));
            r)
      in
      (* epochs identify updates uniquely per shard, so equal epoch
         vectors across two consecutive rounds mean no touched component
         changed between the two rounds' sub-scans (no ABA). *)
      let agree a b =
        let ok = ref true in
        for k = 0 to nt - 1 do
          let ak = a.(k) and bk = b.(k) in
          for p = 0 to Array.length ak - 1 do
            if fst ak.(p) <> fst bk.(p) then ok := false
          done
        done;
        !ok
      in
      let emit rows =
        let _, v0 = rows.(0).(0) in
        let out = Array.make len v0 in
        for k = 0 to nt - 1 do
          let pos = sub_pos.(k) and row = rows.(k) in
          for p = 0 to Array.length row - 1 do
            out.(pos.(p)) <- snd row.(p)
          done
        done;
        out
      in
      let out =
        if relaxed || nt = 1 then
          (* a single sub-scan is linearizable on its own: scans that stay
             inside one shard (the common case under range partitioning
             with window workloads) need no validation round *)
          emit (round ())
        else begin
          (* sliding double collect over whole rounds: retry costs one
             extra round, and only when some touched component really
             changed — lock-free, and never stuck behind a crashed updater
             (a crashed update either installed its epoch or never will;
             neither makes consecutive rounds disagree forever). *)
          let rec settle prev =
            let cur = round () in
            if agree prev cur then emit cur else settle cur
          in
          settle (round ())
        end
      in
      Psnap_sched.Metrics.(add Serving.scan_rounds h.rounds);
      if h.rounds > 2 then
        Psnap_sched.Metrics.(add Serving.scan_retries (h.rounds - 2));
      out
    end

  let last_scan_collects h = h.collects

  let last_scan_rounds h = h.rounds
end
