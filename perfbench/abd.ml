(* The ABD stack, measured on the abd-net3 stream by store-write-heavy's
   traced run: Figure 3 over ABD quorum registers served by three replica
   domains (part of the system under test), one client domain. *)

open Psnap

let replicas = 3

(* Network counters of the traced passes' timed loops. *)
let net_sum = ref None

let add_net (a : Metrics.net) (b : Metrics.net) =
  {
    a with
    Metrics.sends = a.Metrics.sends + b.Metrics.sends;
    rounds = a.rounds + b.rounds;
    resends = a.resends + b.resends;
    writebacks = a.writebacks + b.writebacks;
    writeback_skips = a.writeback_skips + b.writeback_skips;
    unavailable = a.unavailable + b.unavailable;
    quorum_ops = a.quorum_ops + b.quorum_ops;
    quorum_wait = a.quorum_wait + b.quorum_wait;
  }

module Make
    (S : Snapshot.S)
    (P : sig
      val traced : bool
    end) : Client.STACK = struct
  type w = {
    cluster : Net.Abd.mc_cluster;
    domains : unit Domain.t list;
    h : int S.handle;
    m : int;
  }

  let setup (spec : Stream.spec) =
    let m = spec.Stream.m in
    (* The client domain keeps the node id it claimed in the first
       cluster; every cluster has the same layout, so the id stays valid. *)
    let cluster = Net.Abd.mc_cluster ~clients:1 ~replicas () in
    let domains =
      List.init replicas (fun i ->
          Domain.spawn (Net.Abd.mc_replica_body cluster ~index:i))
    in
    let t = S.create ~n:1 (Array.make m 0) in
    let h = S.handle t ~pid:0 in
    for i = 0 to m - 1 do
      S.update h i (Stream.preload_value i)
    done;
    Metrics.reset_net ();
    { cluster; domains; h; m }

  let update w i v = S.update w.h i v

  let scan w idxs = S.scan w.h idxs

  (* Read every component back through one full scan. *)
  let verify w shadow =
    if P.traced then begin
      let d = Metrics.net () in
      net_sum := Some (match !net_sum with None -> d | Some a -> add_net a d)
    end;
    S.scan w.h (Array.init w.m Fun.id) = shadow

  let teardown w =
    Net.Abd.mc_stop w.cluster;
    List.iter Domain.join w.domains
end

module Plain =
  Make
    (Mc_net_fig3)
    (struct
      let traced = false
    end)

module NM =
  Shims.Mem
    (Net.Abd.Mc_mem)
    (struct
      let span = true
    end)

module Traced =
  Make
    (Shims.Snapshot
       (Snapshot.Fig3 (NM) (Shims.Activeset (Active_set.Fai_cas (NM))))
       (struct
         let name = Tracing.Snapshot
       end))
    (struct
      let traced = true
    end)

(* The same stack on the simulated cluster: two client fibers and three
   replica fibers. *)
let sim_steps (s : Stream.t) ~ops ~seed =
  let init = Array.init s.Stream.spec.Stream.m Stream.preload_value in
  let fresh () =
    let cl = Net.Abd.cluster ~clients:2 ~replicas () in
    ( Sim_net_fig3.create ~n:2 (Array.copy init),
      fun clients ->
        Array.append
          (Array.mapi (fun pid body -> Net.Abd.wrap_client cl ~pid body) clients)
          (Array.init replicas (fun index -> Net.Abd.replica_body cl ~index)) )
  in
  let module St = Steps.Make (Sim_net_fig3) in
  St.run ~fresh ~init s ~ops ~seed
