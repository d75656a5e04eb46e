(** Figure 1: the wait-free partial snapshot from registers.

    Scanners announce the components they need and register in an active
    set; updaters ask the active set who is scanning, read those
    announcements, and run an {e embedded partial scan} over just the union
    of the announced components, writing the resulting view next to their
    value so that starved scanners can borrow it (condition (2) of the
    collect engine, per-process rule).

    Instantiated with a register-only active set (e.g. {!Bounded}) this uses
    registers exclusively, as in Section 3 of the paper.  Theorem 1: with an
    active set of operation cost [T], a scan of [r] components takes
    [O((Cu+1)·r) + T] steps and an update [O(Cu·Cs·rmax) + T] steps.

    {!Make} stores views wholesale (large registers); {!Make_small} is the
    small-registers variant of the remark after Theorem 1. *)

module Make_repr
    (M : Psnap_mem.Mem_intf.S)
    (A : Psnap_activeset.Activeset_intf.S)
    (V : View_repr.S) : Snapshot_intf.S = struct
  module C = Collect.Make (M) (V)
  module Ann = Announce.Make (M)

  type 'a t = { regs : 'a C.cell M.ref_ array; ann : Ann.t; aset : A.t }

  type 'a handle = {
    t : 'a t;
    pid : int;
    a : A.handle;
    mutable seq : int;
        [@psnap.local_state
          "per-process write sequence number; single-writer, only ever \
           published inside the tag written to this process's register"]
    mutable last_collects : int;
        [@psnap.local_state
          "diagnostics: records how many collects the last scan took; read \
           back only by the owning process"]
  }

  let name = "fig1-reg(" ^ A.name ^ ")"

  let create ~n init =
    {
      regs =
        Array.mapi
          (fun i v -> M.make ~name:"R" ~index:i (C.init_cell v))
          init;
      ann = Ann.create ~n;
      aset = A.create ~n ();
    }

  let handle t ~pid =
    { t; pid; a = A.handle t.aset ~pid; seq = 0; last_collects = 0 }

  let update h i v =
    let scanners = A.get_set h.t.aset in
    let args = Ann.union_announced h.t.ann scanners in
    let result, _ = C.scan_per_process h.t.regs args in
    let view = C.to_view result in
    M.write h.t.regs.(i) { C.v; view; tag = Tag.W { pid = h.pid; seq = h.seq } };
    h.seq <- h.seq + 1

  let scan h idxs =
    let sorted = Array.of_list (List.sort_uniq compare (Array.to_list idxs)) in
    Ann.announce h.t.ann ~pid:h.pid sorted;
    A.join h.a;
    let result, st = C.scan_per_process h.t.regs sorted in
    A.leave h.a;
    h.last_collects <- st.collects;
    C.extract result idxs

  (* updates linearize at their write, so the register is the component *)
  let read h i = (M.read h.t.regs.(i)).v

  let last_scan_collects h = h.last_collects
end

module Make (M : Psnap_mem.Mem_intf.S) (A : Psnap_activeset.Activeset_intf.S) =
  Make_repr (M) (A) (View_repr.Direct)

(** Small-registers variant: views live in per-pair registers behind a
    pointer. *)
module Make_small
    (M : Psnap_mem.Mem_intf.S)
    (A : Psnap_activeset.Activeset_intf.S) =
  Make_repr (M) (A) (View_repr.Indirect (M))
