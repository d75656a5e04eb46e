(* The layered store of the two store-* workloads:

     Durable (Sharded (fig3) (8 shards, range, validated)) (Storage.Mc)

   built twice from the library's functors — once plain, once with a shim
   at every layer boundary — plus the same stack on the simulator for the
   exact step counts. *)

open Psnap

module Cfg = struct
  let shards = 8
  let partition = `Range
  let mode = `Validated
end

(* Commits between checkpoints: one at the end of the preload and two or
   three per pass of store-write-heavy, each a full scan of the store.
   More often, checkpoints take most of that workload's time. *)
let checkpoint_every = 65_536

(* Wall nanoseconds of the last recovery, for [persist.recover_s]. *)
let last_recover_ns = ref 0

module Make
    (M : Mem.S)
    (Inner : Snapshot.S)
    (St : Persist.Storage.S)
    (P : sig
      val traced : bool
    end) : Client.STACK = struct
  module D = Persist.Durable.Make (M) (Inner) (St)
  module T = Shims.Durable (D)

  let config = { D.checkpoint_every; write_ahead = true }

  type w = { t : int D.t; h : int D.handle; m : int }

  let setup (spec : Stream.spec) =
    let m = spec.Stream.m in
    let t = D.create_with ~config ~n:1 (Array.make m 0) in
    let h = D.handle t ~pid:0 in
    for i = 0 to m - 1 do
      D.update h i (Stream.preload_value i)
    done;
    { t; h; m }

  let update w i v = if P.traced then T.update w.h i v else D.update w.h i v

  let scan w idxs = if P.traced then T.scan w.h idxs else D.scan w.h idxs

  (* Every acknowledged write must survive: rebuild a fresh store from the
     device alone and compare all of it with the shadow. *)
  let verify w shadow =
    let t0 = Tracing.now () in
    let r = D.recover ~config (D.storage w.t) ~n:1 (Array.make w.m 0) in
    last_recover_ns := Tracing.now () - t0;
    D.scan (D.handle r ~pid:0) (Array.init w.m Fun.id) = shadow

  let teardown _ = ()
end

module Plain =
  Make (Mem.Atomic)
    (Runtime.Sharded.Make (Mem.Atomic) (Mc_fig3) (Cfg))
    (Persist.Storage.Mc)
    (struct
      let traced = false
    end)

module TM =
  Shims.Mem
    (Mem.Atomic)
    (struct
      let span = false
    end)

module Traced =
  Make (TM)
    (Shims.Runtime
       (Runtime.Sharded.Make (TM)
          (Shims.Shard (Snapshot.Fig3 (TM) (Shims.Activeset (Active_set.Fai_cas (TM)))))
          (Cfg)))
    (Shims.Storage (Persist.Storage.Mc))
    (struct
      let traced = true
    end)

(* The same stack on the simulator. *)
module Sim_store =
  Persist.Durable.Make (Mem.Sim)
    (Runtime.Sharded.Make (Mem.Sim) (Sim_fig3) (Cfg))
    (Persist.Storage.Sim)

let sim_steps (s : Stream.t) ~ops ~seed =
  let init = Array.init s.Stream.spec.Stream.m Stream.preload_value in
  let fresh () =
    Persist.Storage.Sim.reset ();
    Sim.reset_prerun_oids ();
    (Sim_store.create ~n:2 (Array.copy init), Fun.id)
  in
  let module St = Steps.Make (Sim_store) in
  St.run ~fresh ~init s ~ops ~seed
