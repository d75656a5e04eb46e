(** Figure 3: the partial snapshot with {e local} scans, from compare&swap
    and fetch&increment (Section 4.2) — the paper's main algorithm.

    Two changes relative to Figure 1 make scans local:

    - updates install their value with {b compare&swap} instead of a write,
      which validates the stronger per-location borrowing rule: three
      distinct values in one location let the scanner borrow the third one's
      view.  A scan of [r] components therefore finishes within [2r + 1]
      collects — [O(r²)] steps worst case, independent of [m], [n] and all
      contention (Theorem 3);
    - the active set is the fetch&increment/compare&swap one of Figure 2,
      whose [join]/[leave] cost O(1) worst case.

    An update whose CAS fails is linearized immediately before the update
    that beat it, so it behaves as if instantly overwritten; its counter is
    only advanced on success, exactly as in the pseudocode.

    The functor takes the active set as a parameter so that ablations can
    swap it (the faithful instantiation is [Fai_cas]).  {!Make} stores
    views wholesale in the CAS cells (large objects); {!Make_small} is the
    small-registers variant of the remark after Theorem 3, adding
    [O(Cs·rmax)] steps per update and [O(r·log(Cs·rmax))] per scan. *)

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
           published inside the tag installed by this process's CAS"]
    mutable last_collects : int;
        [@psnap.local_state
          "diagnostics: records how many collects the last scan took; read \
           back only by the owning process"]
  }

  let name = "fig3-cas(" ^ A.name ^ ")"

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
    let old = M.read h.t.regs.(i) in
    let scanners = A.get_set h.t.aset in
    let args = Ann.union_announced h.t.ann scanners in
    let result, _ = C.scan_per_location h.t.regs args in
    let view = C.to_view result in
    let desired = { C.v; view; tag = Tag.W { pid = h.pid; seq = h.seq } } in
    (* On a machine whose CAS may fail spuriously (LL/SC-style weak CAS), a
       failure is not proof of a conflicting write — treating it as one
       silently drops the update, a real linearizability violation.  Retry
       while the location is physically unchanged: the CAS then still
       installs against the value [old] this update read, so the
       per-location borrowing rule's accounting ("a third value's updater
       read the second") is untouched.  Under a strong CAS the re-read
       never matches after a failure and the loop exits on the first
       iteration, as in the pseudocode. *)
    let[@psnap.helping] rec install () =
      if M.cas h.t.regs.(i) ~expected:old ~desired then h.seq <- h.seq + 1
      else if M.read h.t.regs.(i) == old then install ()
    in
    install ()

  let scan h idxs =
    let sorted = Array.of_list (List.sort_uniq compare (Array.to_list idxs)) in
    Ann.announce h.t.ann ~pid:h.pid sorted;
    A.join h.a;
    let result, st = C.scan_per_location h.t.regs sorted in
    A.leave h.a;
    h.last_collects <- st.collects;
    C.extract result idxs

  (* The CAS cell always holds the component's current value: a failed
     CAS is linearized just before the update that beat it, so it is
     never visible. *)
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
