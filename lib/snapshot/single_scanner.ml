(** A single-writer, single-scanner partial snapshot in the style of Riany,
    Shavit and Touitou [22] (related work, Section 5): updates cost O(1)
    steps and a partial scan of [r] components costs [r + 1] steps — far
    below the general algorithms — by {e restricting} the object: each
    component is owned by one writer, and only one designated process may
    scan.

    The scanner bumps a sequence register; every update stamps the current
    sequence number and carries the owner's previous pre-scan value.  A
    scan at sequence [s] takes a value stamped [< s] at face value, and for
    a value stamped [>= s] (written after the scan's linearization point)
    falls back to the carried [prev], which single-writership guarantees
    was the component's value just before the scan point.

    The fallback is exactly what breaks under multiple writers: another
    writer can slip a value between an update's read and its write, making
    [prev] stale — `test_single_scanner.ml` exhibits a concrete
    non-linearizable multi-writer execution found by the exhaustive
    explorer.  This is the structural reason the paper's general
    multi-writer algorithm needs compare&swap and helping instead
    (Section 4). *)

module Make (M : Psnap_mem.Mem_intf.S) = struct
  type 'a cell = { v : 'a; seq : int; prev : 'a }

  type 'a t = {
    regs : 'a cell M.ref_ array;
    seq : int M.ref_;
    owner : int array;  (** [owner.(i)] may update component [i] *)
    scanner : int;  (** the only process allowed to scan *)
  }

  type 'a handle = {
    t : 'a t;
    pid : int;
    mutable cur_seq : int;
        [@psnap.local_state
          "the scanner's private sequence counter; published only via the \
           write to the shared Seq register"]
  }

  let name = "single-scanner"

  let create ~owner ~scanner init =
    if Array.length owner <> Array.length init then
      invalid_arg "Single_scanner.create: owner/init length mismatch";
    {
      regs =
        Array.mapi
          (fun i v ->
            M.make ~name:"R" ~index:i { v; seq = min_int; prev = v })
          init;
      seq = M.make ~name:"Seq" 0;
      owner;
      scanner;
    }

  let handle t ~pid = { t; pid; cur_seq = 0 }

  (* O(1): one read of the sequence register, one read-modify-write of the
     owned component (single-writer, so the plain read+write pair is safe) *)
  let update h i v =
    if h.t.owner.(i) <> h.pid then
      invalid_arg
        (Printf.sprintf "Single_scanner.update: process %d does not own %d"
           h.pid i);
    let old = M.read h.t.regs.(i) in
    let s = M.read h.t.seq in
    let prev = if old.seq < s then old.v else old.prev in
    M.write h.t.regs.(i) { v; seq = s; prev }

  (* r + 1 steps: bump the sequence register (the scan's linearization
     point), then read each component once *)
  let scan h idxs =
    if h.pid <> h.t.scanner then
      invalid_arg "Single_scanner.scan: not the designated scanner";
    h.cur_seq <- h.cur_seq + 1;
    let s = h.cur_seq in
    M.write h.t.seq s;
    Array.map
      (fun i ->
        let c = M.read h.t.regs.(i) in
        if c.seq < s then c.v else c.prev)
      idxs

  (** Unsafe variant used by the tests to demonstrate the multi-writer
      counterexample: same code path, ownership check skipped. *)
  let update_unchecked h i v =
    let old = M.read h.t.regs.(i) in
    let s = M.read h.t.seq in
    let prev = if old.seq < s then old.v else old.prev in
    M.write h.t.regs.(i) { v; seq = s; prev }
end
