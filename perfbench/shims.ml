(* Timing and counting shims, one per layer boundary.  Every layer of the
   library is a functor over one of these signatures, so the traced run
   builds the same stack as the untraced run with a shim passed in at each
   boundary; no library code is touched.  A shim forwards every call
   unchanged and records only while [Tracing.on] is set. *)

(* Base objects: counts accesses and failed CASes per operation kind.
   [P.span] additionally times each call — used for the ABD backend,
   where one access is one quorum operation. *)
module Mem (M : Psnap.Mem.S) (P : sig
  val span : bool
end) : Psnap.Mem.S with type 'a ref_ = 'a M.ref_ = struct
  type 'a ref_ = 'a M.ref_

  let make = M.make

  (* Counted after the access returns: a simulated process stopped at
     its pending access never executed it. *)
  let count () = if !Tracing.on then Tracing.bump Tracing.c.mem

  let spanned () = P.span && !Tracing.on

  let read r =
    let v = if spanned () then Tracing.wrap Tracing.Net M.read r else M.read r in
    count ();
    v

  let write r v =
    if spanned () then Tracing.wrap Tracing.Net (fun () -> M.write r v) ()
    else M.write r v;
    count ()

  let cas r ~expected ~desired =
    let ok =
      if spanned () then
        Tracing.wrap Tracing.Net (fun () -> M.cas r ~expected ~desired) ()
      else M.cas r ~expected ~desired
    in
    if !Tracing.on then begin
      Tracing.bump Tracing.c.mem;
      Tracing.bump Tracing.c.cas;
      if not ok then Tracing.bump Tracing.c.cas_failed
    end;
    ok

  let fetch_and_add r k =
    let v =
      if spanned () then
        Tracing.wrap Tracing.Net (fun () -> M.fetch_and_add r k) ()
      else M.fetch_and_add r k
    in
    count ();
    v
end

module Activeset (A : Psnap.Active_set.S) : Psnap.Active_set.S = struct
  include A

  let call f h =
    if !Tracing.on then begin
      Tracing.bump Tracing.c.aset_calls;
      Tracing.wrap Tracing.Activeset f h
    end
    else f h

  let join h = call A.join h

  let leave h = call A.leave h

  let get_set t = call A.get_set t
end

(* A snapshot layer: spans around [update] and [scan]; scans add their
   collect count. *)
module Snapshot (S : Psnap.Snapshot.S) (P : sig
  val name : Tracing.name
end) =
struct
  include S

  let update h i v =
    if !Tracing.on then Tracing.wrap P.name (fun () -> S.update h i v) ()
    else S.update h i v

  let scan h idxs =
    if !Tracing.on then begin
      let r = Tracing.wrap P.name (S.scan h) idxs in
      Tracing.add Tracing.c.collects (S.last_scan_collects h);
      r
    end
    else S.scan h idxs
end

(* Each shard's fig3 instance: counts the sub-scans of a sharded scan. *)
module Shard (S : Psnap.Snapshot.S) : Psnap.Snapshot.S = struct
  module T = Snapshot (S) (struct
    let name = Tracing.Snapshot
  end)

  include T

  let scan h idxs =
    if !Tracing.on then Tracing.bump Tracing.c.rt_subscans;
    T.scan h idxs
end

(* The sharded runtime.  A scan issued from inside an update is the
   persist layer's checkpoint; its start is marked here and closed by
   [Durable] below. *)
module Runtime (R : sig
  include Psnap.Snapshot.S

  val last_scan_rounds : 'a handle -> int
end) : Psnap.Snapshot.S = struct
  include Snapshot (R) (struct
    let name = Tracing.Runtime
  end)

  let scan h idxs =
    if !Tracing.on then begin
      if !Tracing.kind = Tracing.update_kind && !Tracing.ckpt_start < 0 then
        Tracing.ckpt_start := Tracing.now ();
      let r = Tracing.wrap Tracing.Runtime (R.scan h) idxs in
      Tracing.bump Tracing.c.rt_scans;
      Tracing.add Tracing.c.rt_rounds (R.last_scan_rounds h);
      r
    end
    else R.scan h idxs
end

module Storage (St : Psnap.Persist.Storage.S) : Psnap.Persist.Storage.S = struct
  include St

  let append t s =
    if !Tracing.on then begin
      Tracing.bump Tracing.c.appends;
      Tracing.add Tracing.c.bytes (String.length s);
      Tracing.wrap Tracing.Append (St.append t) s
    end
    else St.append t s

  let sync t =
    if !Tracing.on then begin
      Tracing.bump Tracing.c.syncs;
      Tracing.wrap Tracing.Sync St.sync t
    end
    else St.sync t
end

(* The durable layer: the outermost span of a store operation. *)
module Durable (D : Psnap.Snapshot.S) = struct
  include D

  let update h i v =
    if !Tracing.on then begin
      Tracing.wrap Tracing.Persist (fun () -> D.update h i v) ();
      if !Tracing.ckpt_start >= 0 then begin
        Tracing.ckpt_ns := !Tracing.ckpt_ns + Tracing.now () - !Tracing.ckpt_start;
        incr Tracing.ckpt_count;
        Tracing.ckpt_start := -1
      end
    end
    else D.update h i v

  let scan h idxs =
    if !Tracing.on then Tracing.wrap Tracing.Persist (D.scan h) idxs
    else D.scan h idxs
end
