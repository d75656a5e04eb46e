(** The classic wait-free multi-writer snapshot of Afek et al. [1], which
    the paper uses both as its starting point (Section 3) and as the
    baseline a partial snapshot must beat: here {e every} scan — and the
    embedded scan of {e every} update — reads all [m] components, so the
    cost of a partial scan of [r] components still grows with [m].

    [scan idxs] performs a full embedded scan and projects the requested
    components; this is exactly the "trivial" partial snapshot
    implementation discussed in the introduction of the paper. *)

module Make (M : Psnap_mem.Mem_intf.S) : Snapshot_intf.S = struct
  module C = Collect.Make (M) (View_repr.Direct)

  type 'a t = { regs : 'a C.cell M.ref_ array; all : int array }

  type 'a handle = {
    t : 'a t;
    pid : int;
    mutable seq : int;
        [@psnap.local_state
          "per-process write sequence number; single-writer, only ever \
           published inside the tag written to this process's register"]
    mutable last_collects : int;
        [@psnap.local_state
          "diagnostics: records how many collects the last scan took; read \
           back only by the owning process"]
  }

  let name = "afek-full"

  let create ~n:_ init =
    {
      regs =
        Array.mapi
          (fun i v -> M.make ~name:"R" ~index:i (C.init_cell v))
          init;
      all = Array.init (Array.length init) (fun i -> i);
    }

  let handle t ~pid = { t; pid; seq = 0; last_collects = 0 }

  let update h i v =
    let result, _ = C.scan_per_process h.t.regs h.t.all in
    let view = C.to_view result in
    M.write h.t.regs.(i)
      { C.v; view; tag = Tag.W { pid = h.pid; seq = h.seq } };
    h.seq <- h.seq + 1

  let scan h idxs =
    let result, st = C.scan_per_process h.t.regs h.t.all in
    h.last_collects <- st.collects;
    C.extract result idxs

  let read h i = (scan h [| i |]).(0)

  let last_scan_collects h = h.last_collects
end
