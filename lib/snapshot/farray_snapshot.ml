(** The multi-writer snapshot as a special case of the f-array ([f] =
    identity on the vector), the related-work contrast of Section 5: scans
    are one step, but every update performs Theta(log m) LL/SC operations
    on objects that grow to the full m-component vector at the root —
    neither local nor contention-sensitive, and built on large objects.

    A partial scan projects the requested components out of the root
    vector, exactly like the trivial partial snapshot over a full
    snapshot. *)

module Make (M : Psnap_mem.Mem_intf.S) : Snapshot_intf.S = struct
  module F = Farray.Make (M)

  type 'a t = ('a, 'a array) F.t

  type 'a handle = {
    t : 'a t;
    mutable last_collects : int;
        [@psnap.local_state
          "diagnostics: records the cost of the last scan; read back only \
           by the owning process"]
  }

  let name = "farray"

  let create ~n:_ init =
    if Array.length init = 0 then invalid_arg "Farray_snapshot.create: empty";
    (* the pad value is projected away (scans only touch indices < m) *)
    F.create ~pad:init.(0)
      ~of_leaf:(fun v -> [| v |])
      ~combine:Array.append init

  let handle t ~pid:_ = { t; last_collects = 0 }

  let update h i v = F.update h.t i v

  let scan h idxs =
    let root = F.read_root h.t in
    h.last_collects <- 1;
    Array.map
      (fun i ->
        if i < 0 || i >= F.size h.t then
          invalid_arg "Farray_snapshot.scan: index"
        else root.(i))
      idxs

  let read h i = (scan h [| i |]).(0)

  let last_scan_collects h = h.last_collects
end
