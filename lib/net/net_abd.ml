(* ABD-style multi-writer quorum registers over the crash-prone message
   transport (docs/MODEL.md §14) — the [Mem_intf.S] backend that lets every
   snapshot algorithm in the repository run unchanged against a replicated,
   partition-tolerant service.

   Layout: nodes [0 .. clients-1] are client endpoints (client node id =
   simulator pid), nodes [clients .. clients+pool-1] are the replica pool
   ([pool = replicas + spares]; the spares idle until a reconfiguration
   promotes them), and — when the cluster is built [~with_manager] — node
   [clients+pool] is the membership manager's endpoint.  Each replica is a
   single-writer state machine whose durable state lives in one simulated
   memory cell, so it survives crash/restart of the replica fiber.

   Protocol (Attiya–Bar-Noy–Dolev, multi-writer form):

   - values carry tags [(ts, wpid)], ordered lexicographically; replicas
     apply a [Put] only when its tag is strictly greater than the stored
     one, which makes every phase message idempotent under duplication and
     resend;
   - [write]: a Get round to a majority learns the maximal timestamp T,
     then a Put round with tag [(T+1, self)] installs the value at a
     majority;
   - [read]: a Get round to a majority picks the maximally-tagged value;
     if some replier is behind, a write-back Put round installs that value
     at a majority before returning (the read-repair that makes reads
     linearizable).  When every quorum replier already reported the
     maximal tag the write-back is soundly skipped.  [Weak] mode skips the
     write-back unconditionally — the classically unsound "fast read" that
     the E19 witness convicts of new/old inversion;
   - [cas]/[fetch_and_add]: forwarded to the register's home replica
     (under configuration [cfg]: [members_(rid mod |members|)]), which
     applies the read-modify-write atomically against its durable state
     under a per-client dedup table (at-most-once despite resends and
     duplicated deliveries), tags the result from its monotone counter,
     and returns it; the client then replicates the new value to a
     majority before returning.  Sound here because no algorithm in this
     repository mixes plain writes with RMW on the same cell: RMW tags of
     a cell are totally ordered by its home's counter;
   - every phase is bounded: a request is rebroadcast at most
     [max_attempts] times with a linearly growing poll budget between
     resends (poll-step backoff), after which the operation raises
     {!Unavailable} — surfaced through a per-client circuit breaker
     (counted in [Metrics.Serving]) so a partitioned client fails fast
     instead of spinning.

   Reconfiguration plumbing (docs/MODEL.md §16; driven by [Net_reconfig]):

   - a {!config} is an epoch number plus a member list; every data message
     carries the sender's epoch;
   - a {e fenced} replica rejects data operations below its epoch (or at
     its epoch while sealed) with [Stale] carrying its active
     configuration, and stays {e silent} on operations above its epoch —
     it must not serve an epoch whose transferred state it has not yet
     received via [Install].  Quorum intersection then gives the safety
     argument: a write acked at epoch e intersects the seal-collect
     quorum of e (both majorities of e's members), and its value is
     carried into e+1 by the [Install] merge before any e+1 quorum can
     assemble;
   - clients chase the configuration: a [Stale] reply with a newer config
     is adopted and the whole operation restarts under the new epoch; an
     [Unavailable] operation first broadcasts [Get_config] to the whole
     replica pool and retries if that discovers a newer configuration;
   - with fencing off ([set_fenced c false] — the deliberately unsound
     "naive" mode) replicas answer every epoch and [Seal] snapshots state
     {e without} sealing, so a write concurrent with the state transfer
     can commit at the old members only and be missing from the new
     epoch: the split-brain lost write of the E21 witness.

   Known limitation: RMW at-most-once across a reconfiguration relies on
   the home replica's dedup entry reaching the seal-collect quorum; a
   reply lost before the value spreads leaves a re-apply window.  The
   reconfiguration campaigns therefore drive read/write workloads; see
   docs/MODEL.md §16.

   Values cross the wire as [Obj.t].  The packing is confined to this
   module and is sound for the same reason [Mem_intf]'s physical-equality
   CAS is: each register holds values of one static type, messages are
   passed by pointer (never serialized), so physical equality of packed
   values coincides with the backend contract. *)

module Sim_k = Psnap_sched.Sim
module Msim = Psnap_sched.Mem_sim
module Metrics = Psnap_sched.Metrics

exception Unavailable of string

(* Raised inside a client operation when a [Stale] reply revealed a newer
   configuration: the operation must restart from scratch under the new
   epoch (stale partial quorum tallies are worthless).  Never escapes this
   module — {!with_retries} converts an exhausted chase budget into
   {!Unavailable}. *)
exception Epoch_changed

type mode = Abd | Weak

(* ---- configurations ---- *)

type config = { epoch : int; members : int list }

let quorum_of cfg = (List.length cfg.members / 2) + 1

let pp_config ppf cfg =
  Format.fprintf ppf "e%d{%s}" cfg.epoch
    (String.concat "," (List.map string_of_int cfg.members))

(* ---- tags and wire format ---- *)

type tag = { ts : int; wpid : int }

let tag0 = { ts = 0; wpid = -1 }
let tag_lt a b = a.ts < b.ts || (a.ts = b.ts && a.wpid < b.wpid)

type value = Obj.t

let pack : 'a -> value = Obj.repr
let unpack : value -> 'a = Obj.obj

(* One register: [home] is a replica index in [0 .. replicas-1].  [init]
   doubles as the pre-run contents — [Mem_intf] setup code that runs
   outside [Sim.run] reads and writes it directly. *)
type reg = { rid : int; rname : string; home : int; mutable init : value }

type rmw_op = Cas_op of { expected : value; desired : value } | Faa_op of int

module Imap = Map.Make (Int)

type body =
  | Get of { rid : int }
  | Gotten of { rid : int; tag : tag; v : value }
  | Put of { rid : int; tag : tag; v : value }
  | Put_ack of { rid : int }
  | Rmw of { rid : int; op : rmw_op }
  | Rmw_reply of { rid : int; res : value; tag : tag; v : value; applied : bool }
  (* reconfiguration control plane *)
  | Stale of { cfg : config }  (* epoch fence: rejected, here is my config *)
  | Get_config
  | Config_reply of { cfg : config }
  | Seal of { epoch : int }
  | Seal_ack of {
      epoch : int;
      vals : (tag * value) Imap.t;
      next_ts : int;
      dedup : (int * body) Imap.t;
    }
  | Install of {
      cfg : config;
      vals : (tag * value) Imap.t;
      next_ts : int;
      dedup : (int * body) Imap.t;
    }
  | Install_ack of { epoch : int }
  | Ping
  | Pong

type msg = { src : int; reqid : int; epoch : int; body : body }

(* ---- replica state machine ---- *)

type rstate = {
  vals : (tag * value) Imap.t;  (* rid -> current tagged value *)
  next_ts : int;  (* monotone RMW tag counter *)
  dedup : (int * body) Imap.t;  (* client node -> (last reqid, its reply) *)
  rcfg : config;  (* active configuration (learned via [Install]) *)
  sealed : bool;  (* fenced at [rcfg.epoch]: data operations rejected *)
}

let rstate_at cfg =
  { vals = Imap.empty; next_ts = 1; dedup = Imap.empty; rcfg = cfg; sealed = false }

let lookup ~init_of st rid =
  match Imap.find_opt rid st.vals with
  | Some tv -> tv
  | None -> (tag0, init_of rid)

(* State-transfer merges: per register the maximal tag wins (the [Put]
   rule, lifted to whole states), the RMW counter takes the max, and per
   client the dedup entry with the larger request id wins — all
   commutative, associative and idempotent, so [Install] retries and
   overlapping transfers are harmless. *)
let merge_vals a b =
  Imap.union (fun _ (ta, va) (tb, vb) ->
      Some (if tag_lt ta tb then (tb, vb) else (ta, va)))
    a b

let merge_dedup a b =
  Imap.union (fun _ ((ra, _) as xa) ((rb, _) as xb) ->
      Some (if ra >= rb then xa else xb))
    a b

(* Pure transition: one request in, next state and optional reply out.
   Shared verbatim by the simulated and the multicore replica bodies.
   [fenced] is the epoch discipline switch: off, data operations are
   served whatever their epoch and [Seal] snapshots without sealing — the
   naive reconfiguration mode the E21 witness convicts. *)
let serve ~fenced ~init_of ~rnode st (m : msg) : rstate * body option =
  let stale () =
    Metrics.(incr Reconfig.stale_rejects);
    (st, Some (Stale { cfg = st.rcfg }))
  in
  match m.body with
  (* control plane: health and discovery answer regardless of epoch *)
  | Ping -> (st, Some Pong)
  | Get_config -> (st, Some (Config_reply { cfg = st.rcfg }))
  | Seal { epoch } ->
      if not fenced then
        (* naive mode: hand out the snapshot without closing the epoch —
           writes concurrent with the transfer can still commit here *)
        (st,
         Some
           (Seal_ack
              { epoch; vals = st.vals; next_ts = st.next_ts; dedup = st.dedup }))
      else if epoch = st.rcfg.epoch then begin
        if not st.sealed then Metrics.(incr Reconfig.seals);
        ({ st with sealed = true },
         Some
           (Seal_ack
              { epoch; vals = st.vals; next_ts = st.next_ts; dedup = st.dedup }))
      end
      else if epoch < st.rcfg.epoch then stale ()
      else (st, None) (* seal from an epoch we were never installed into *)
  | Install { cfg; vals; next_ts; dedup } ->
      let st =
        if cfg.epoch >= st.rcfg.epoch then
          {
            vals = merge_vals st.vals vals;
            next_ts = max st.next_ts next_ts;
            dedup = merge_dedup st.dedup dedup;
            rcfg = cfg;
            sealed = false;
          }
        else st (* stale manager retry: ack without regressing *)
      in
      (st, Some (Install_ack { epoch = cfg.epoch }))
  | (Get _ | Put _ | Rmw _) when fenced && m.epoch < st.rcfg.epoch -> stale ()
  | (Get _ | Put _ | Rmw _) when fenced && st.sealed -> stale ()
  | (Get _ | Put _ | Rmw _) when fenced && m.epoch > st.rcfg.epoch ->
      (* the caller runs an epoch whose transferred state we have not yet
         received: serving would leak pre-transfer (empty) values into a
         new-epoch quorum, so stay silent until [Install] arrives *)
      (st, None)
  | Get { rid } ->
      let tag, v = lookup ~init_of st rid in
      (st, Some (Gotten { rid; tag; v }))
  | Put { rid; tag; v } ->
      let cur, _ = lookup ~init_of st rid in
      let st =
        if tag_lt cur tag then { st with vals = Imap.add rid (tag, v) st.vals }
        else st
      in
      (st, Some (Put_ack { rid }))
  | Rmw { rid; op } -> (
      match Imap.find_opt m.src st.dedup with
      | Some (last, reply) when last = m.reqid ->
          (st, Some reply) (* duplicate of the served request: replay *)
      | Some (last, _) when m.reqid < last ->
          (st, None) (* stale duplicate: the client has moved on *)
      | _ ->
          let cur_tag, cur = lookup ~init_of st rid in
          let finish tag' v' res applied =
            let reply = Rmw_reply { rid; res; tag = tag'; v = v'; applied } in
            let st =
              {
                st with
                vals =
                  (if applied then Imap.add rid (tag', v') st.vals
                   else st.vals);
                next_ts = (if applied then st.next_ts + 1 else st.next_ts);
                dedup = Imap.add m.src (m.reqid, reply) st.dedup;
              }
            in
            (st, Some reply)
          in
          (match op with
          | Cas_op { expected; desired } ->
              if cur == expected then
                finish { ts = st.next_ts; wpid = rnode } desired (pack true)
                  true
              else finish cur_tag cur (pack false) false
          | Faa_op k ->
              let n : int = unpack cur in
              finish { ts = st.next_ts; wpid = rnode } (pack (n + k)) (pack n)
                true))
  | Gotten _ | Put_ack _ | Rmw_reply _ | Stale _ | Config_reply _ | Seal_ack _
  | Install_ack _ | Pong ->
      (st, None)

(* ---- client-side quorum protocol ---- *)

type cconf = {
  clients : int;
  replicas : int;  (* initial member count (configuration 0) *)
  pool : int;  (* replica-pool size: replicas + spares *)
  quorum : int;  (* majority of the initial configuration *)
  poll_budget : int;
  max_attempts : int;
  mutable mode : mode;
  mutable fenced : bool;
  mutable reconfig_active : bool;  (* chase configs on [Unavailable]? *)
  breaker_cooldown : int;
}

type endpoint = {
  self : int;
  send : dst:int -> msg -> unit;
  recv : unit -> msg option;
  relax : unit -> unit;
}

type ctx = {
  ep : endpoint;
  cc : cconf;
  fresh : unit -> int;
  view : unit -> config;  (* the client's cached configuration *)
  adopt : config -> unit;
  pool_nodes : int list;  (* chase broadcast targets: the whole pool *)
}

let pool_nodes_of cc = List.init cc.pool (fun i -> cc.clients + i)

(* One bounded phase: broadcast the request to [targets], poll the inbox
   until [need] holds; rebroadcast with a linearly growing poll budget
   (the backoff), at most [max_attempts] times, then give up.  Returns the
   poll-steps spent (the quorum-latency contribution).  A [Stale] reply
   carrying a configuration newer than the phase's epoch, and no older
   than the cached view, is adopted here and aborts the operation with
   {!Epoch_changed} — also when the view already holds it: a multicore
   client's view follows the shared configuration cell, so it can move
   past the epoch an operation started in.  A same-epoch [Stale] (a
   sealed replica) is ignored — the resend/backoff loop rides out the
   transfer window and the [Unavailable] path chases the new
   configuration.  The manager's view never lets a [Stale] abort. *)
let run_phase ?attempts ?budget ctx ~reqid ~epoch ~targets ~mk ~need ~on =
  let max_attempts = Option.value attempts ~default:ctx.cc.max_attempts in
  let base_budget = Option.value budget ~default:ctx.cc.poll_budget in
  let wait = ref 0 in
  let rec attempt k =
    if k > max_attempts then begin
      Metrics.(incr Net.unavailable);
      raise (Unavailable "no quorum within the attempt budget")
    end;
    if k > 1 then Metrics.(incr Net.resends);
    List.iter
      (fun dst ->
        ctx.ep.send ~dst { src = ctx.ep.self; reqid; epoch; body = mk () })
      targets;
    let rec poll b =
      if need () then ()
      else if b = 0 then attempt (k + 1)
      else begin
        (match ctx.ep.recv () with
        | Some m ->
            if m.reqid = reqid then (
              match m.body with
              | Stale { cfg } ->
                  let cur = ctx.view () in
                  if cfg.epoch > epoch && cfg.epoch >= cur.epoch
                     && cfg.members <> []
                  then begin
                    ctx.adopt cfg;
                    Metrics.(incr Reconfig.epoch_chases);
                    raise Epoch_changed
                  end
              | _ -> on m)
        | None -> ctx.ep.relax ());
        incr wait;
        poll (b - 1)
      end
    in
    poll (base_budget * k)
  in
  attempt 1;
  Metrics.(incr Net.quorum_rounds);
  !wait

(* Configuration chase: ask the whole pool, adopt a strictly newer
   configuration if any replica knows one.  The [Unavailable] fallback of
   every client operation once reconfiguration is active — this is how a
   client survives its entire cached member set dying. *)
let chase_config ctx =
  if not ctx.cc.reconfig_active then false
  else begin
    let cur = ctx.view () in
    let reqid = ctx.fresh () in
    let best = ref cur in
    (try
       ignore
         (run_phase ctx ~reqid ~epoch:cur.epoch ~targets:ctx.pool_nodes
            ~mk:(fun () -> Get_config)
            ~need:(fun () -> !best.epoch > cur.epoch)
            ~on:(fun m ->
              match m.body with
              | Config_reply { cfg }
                when cfg.epoch > !best.epoch && cfg.members <> [] ->
                  best := cfg
              | _ -> ()))
     with Unavailable _ -> ());
    if !best.epoch > cur.epoch then begin
      ctx.adopt !best;
      Metrics.(incr Reconfig.epoch_chases);
      true
    end
    else false
  end

(* Operation-level retry: restart the whole operation on an epoch change,
   chase the configuration on [Unavailable]; a bounded number of restarts,
   then give up as [Unavailable] (the breaker's department). *)
let with_retries ctx f =
  let budget = ref (ctx.cc.max_attempts + 4) in
  let rec go () =
    match f (ctx.view ()) with
    | y -> y
    | exception Epoch_changed ->
        if !budget > 0 then begin
          decr budget;
          go ()
        end
        else begin
          Metrics.(incr Net.unavailable);
          raise (Unavailable "epoch chase budget exhausted")
        end
    | exception (Unavailable _ as e) ->
        if !budget > 0 && chase_config ctx then begin
          decr budget;
          go ()
        end
        else raise e
  in
  go ()

let put_round ctx ~(view : config) ~rid ~tag ~v =
  let reqid = ctx.fresh () in
  let acks = Hashtbl.create 8 in
  run_phase ctx ~reqid ~epoch:view.epoch ~targets:view.members
    ~mk:(fun () -> Put { rid; tag; v })
    ~need:(fun () -> Hashtbl.length acks >= quorum_of view)
    ~on:(fun m ->
      match m.body with
      | Put_ack { rid = r } when r = rid -> Hashtbl.replace acks m.src ()
      | _ -> ())

let do_read_v ctx (view : config) (r : reg) =
  let cc = ctx.cc in
  let reqid = ctx.fresh () in
  let replies : (int, tag) Hashtbl.t = Hashtbl.create 8 in
  let best = ref (tag0, r.init) in
  let w1 =
    run_phase ctx ~reqid ~epoch:view.epoch ~targets:view.members
      ~mk:(fun () -> Get { rid = r.rid })
      ~need:(fun () -> Hashtbl.length replies >= quorum_of view)
      ~on:(fun m ->
        match m.body with
        | Gotten { rid; tag; v } when rid = r.rid ->
            if not (Hashtbl.mem replies m.src) then begin
              Hashtbl.replace replies m.src tag;
              if tag_lt (fst !best) tag then best := (tag, v)
            end
        | _ -> ())
  in
  let btag, bv = !best in
  let wait =
    match cc.mode with
    | Weak -> w1 (* unsound fast read: never write back *)
    | Abd ->
        let all_max =
          Hashtbl.fold (fun _ t acc -> acc && not (tag_lt t btag)) replies true
        in
        if all_max then begin
          Metrics.(incr Net.writeback_skips);
          w1
        end
        else begin
          Metrics.(incr Net.writebacks);
          w1 + put_round ctx ~view ~rid:r.rid ~tag:btag ~v:bv
        end
  in
  Metrics.(incr Net.quorum_ops; add Net.quorum_wait wait);
  bv

let do_read ctx r = with_retries ctx (fun view -> do_read_v ctx view r)

let do_write_v ctx (view : config) (r : reg) v =
  let reqid = ctx.fresh () in
  let replies : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let max_ts = ref 0 in
  let w1 =
    run_phase ctx ~reqid ~epoch:view.epoch ~targets:view.members
      ~mk:(fun () -> Get { rid = r.rid })
      ~need:(fun () -> Hashtbl.length replies >= quorum_of view)
      ~on:(fun m ->
        match m.body with
        | Gotten { rid; tag; _ } when rid = r.rid ->
            if not (Hashtbl.mem replies m.src) then begin
              Hashtbl.replace replies m.src ();
              if tag.ts > !max_ts then max_ts := tag.ts
            end
        | _ -> ())
  in
  let tag = { ts = !max_ts + 1; wpid = ctx.ep.self } in
  let w2 = put_round ctx ~view ~rid:r.rid ~tag ~v in
  Metrics.(incr Net.quorum_ops; add Net.quorum_wait (w1 + w2))

let do_write ctx r v = with_retries ctx (fun view -> do_write_v ctx view r v)

let home_of (view : config) rid =
  List.nth view.members (rid mod List.length view.members)

let do_rmw_v ctx (view : config) ~reqid (r : reg) op =
  let home = home_of view r.rid in
  let result = ref None in
  let w1 =
    run_phase ctx ~reqid ~epoch:view.epoch ~targets:[ home ]
      ~mk:(fun () -> Rmw { rid = r.rid; op })
      ~need:(fun () -> Option.is_some !result)
      ~on:(fun m ->
        match m.body with
        | Rmw_reply { rid; res; tag; v; applied } when rid = r.rid ->
            if Option.is_none !result then result := Some (res, tag, v, applied)
        | _ -> ())
  in
  match !result with
  | None -> assert false (* [need] held *)
  | Some (res, tag, v, applied) ->
      let w2 = if applied then put_round ctx ~view ~rid:r.rid ~tag ~v else 0 in
      Metrics.(incr Net.quorum_ops; add Net.quorum_wait (w1 + w2));
      res

(* The request id is chosen once per logical operation, not per epoch
   retry, so the home's dedup table — carried across the transfer —
   answers a retried RMW instead of re-applying it. *)
let do_rmw ctx r op =
  let reqid = ctx.fresh () in
  with_retries ctx (fun view -> do_rmw_v ctx view ~reqid r op)

(* ---- manager-side protocol rounds (driven by [Net_reconfig]) ---- *)

(* A collected state-transfer payload. *)
type xfer = {
  xvals : (tag * value) Imap.t;
  xnext_ts : int;
  xdedup : (int * body) Imap.t;
}

let xfer0 = { xvals = Imap.empty; xnext_ts = 1; xdedup = Imap.empty }

let xfer_registers x = Imap.cardinal x.xvals

(* Seal-and-collect in one round: broadcast [Seal] to the old members,
   merge a read quorum of state snapshots.  In fenced mode every ack also
   closed its replica to the old epoch, so the merge contains every write
   that ever reached an ack quorum (majorities intersect; a replica that
   sealed first refuses the write, a replica that acked the write first
   reports it here). *)
let collect_state ctx ~(cfg : config) =
  let reqid = ctx.fresh () in
  let acc : (int, xfer) Hashtbl.t = Hashtbl.create 8 in
  ignore
    (run_phase ctx ~reqid ~epoch:cfg.epoch ~targets:cfg.members
       ~mk:(fun () -> Seal { epoch = cfg.epoch })
       ~need:(fun () -> Hashtbl.length acc >= quorum_of cfg)
       ~on:(fun m ->
         match m.body with
         | Seal_ack { epoch; vals; next_ts; dedup } when epoch = cfg.epoch ->
             Hashtbl.replace acc m.src
               { xvals = vals; xnext_ts = next_ts; xdedup = dedup }
         | _ -> ()));
  Hashtbl.fold
    (fun _ x acc ->
      {
        xvals = merge_vals acc.xvals x.xvals;
        xnext_ts = max acc.xnext_ts x.xnext_ts;
        xdedup = merge_dedup acc.xdedup x.xdedup;
      })
    acc xfer0

(* Install the transferred state at a write quorum of the new members.
   Broadcast to all of them — stragglers catch up from the resends, and a
   member that never installs simply never serves the new epoch. *)
let install_state ctx ~(cfg : config) x =
  let reqid = ctx.fresh () in
  let acks = Hashtbl.create 8 in
  ignore
    (run_phase ctx ~reqid ~epoch:cfg.epoch ~targets:cfg.members
       ~mk:(fun () ->
         Install
           { cfg; vals = x.xvals; next_ts = x.xnext_ts; dedup = x.xdedup })
       ~need:(fun () -> Hashtbl.length acks >= quorum_of cfg)
       ~on:(fun m ->
         match m.body with
         | Install_ack { epoch } when epoch = cfg.epoch ->
             Hashtbl.replace acks m.src ()
         | _ -> ()));
  Metrics.(add Reconfig.transfers (xfer_registers x))

(* One bounded health probe: a single [Ping] attempt with a small poll
   budget; [false] is a {e silent step timeout}, not proof of death. *)
let probe ctx ~node ~budget =
  let reqid = ctx.fresh () in
  let got = ref false in
  (try
     ignore
       (run_phase ctx ~attempts:1 ~budget ~reqid ~epoch:0 ~targets:[ node ]
          ~mk:(fun () -> Ping)
          ~need:(fun () -> !got)
          ~on:(fun m -> match m.body with Pong -> got := true | _ -> ()))
   with Unavailable _ -> ());
  !got

(* ---- circuit breaker (per client) ---- *)

type breaker = { mutable state : [ `Closed | `Open of int | `Half ] }

let guard_breaker ~cooldown (b : breaker) f =
  let run () =
    try
      let y = f () in
      (match b.state with
      | `Closed -> ()
      | _ ->
          b.state <- `Closed;
          Metrics.(incr Serving.breaker_closes));
      y
    with Unavailable _ as e ->
      b.state <- `Open cooldown;
      Metrics.(incr Serving.breaker_opens);
      raise e
  in
  match b.state with
  | `Closed | `Half -> run ()
  | `Open k when k > 0 ->
      b.state <- `Open (k - 1);
      Metrics.(incr Net.unavailable);
      raise (Unavailable "circuit open")
  | `Open _ ->
      b.state <- `Half;
      Metrics.(incr Serving.breaker_half_opens);
      run ()

(* ---- simulated cluster ---- *)

type sim_cluster = {
  cc : cconf;
  net : msg Net.Sim.t;
  regs : (int, reg) Hashtbl.t;
  mutable next_rid : int;
  stores : rstate Msim.ref_ array;  (* one durable cell per pool replica *)
  sessions : int Msim.ref_ array;  (* per client: 1 = open, 0 = closed *)
  breakers : breaker array;
  reqids : int array;  (* per client; client-local, so a plain array *)
  views : config array;  (* per client: cached configuration *)
  manager_node : int option;
  mutable mgr_reqid : int;
}

let current_sim : sim_cluster option ref = ref None

let initial_config_of ~clients ~replicas =
  { epoch = 0; members = List.init replicas (fun i -> clients + i) }

let cluster ?(mode = Abd) ?(poll_budget = 48) ?(max_attempts = 6)
    ?(breaker_cooldown = 8) ?(spares = 0) ?(with_manager = false) ~clients
    ~replicas () =
  if clients < 1 then invalid_arg "Net_abd.cluster: clients < 1";
  if replicas < 1 then invalid_arg "Net_abd.cluster: replicas < 1";
  if spares < 0 then invalid_arg "Net_abd.cluster: spares < 0";
  Net.Sim.reset ();
  let with_manager = with_manager || spares > 0 in
  let pool = replicas + spares in
  let cc =
    {
      clients;
      replicas;
      pool;
      quorum = (replicas / 2) + 1;
      poll_budget;
      max_attempts;
      mode;
      fenced = true;
      reconfig_active = false;
      breaker_cooldown;
    }
  in
  let cfg0 = initial_config_of ~clients ~replicas in
  let nodes = clients + pool + if with_manager then 1 else 0 in
  let c =
    {
      cc;
      net = Net.Sim.create ~nodes ();
      regs = Hashtbl.create 64;
      next_rid = 0;
      stores =
        Array.init pool (fun i ->
            Msim.make ~name:(Printf.sprintf "abd.r%d.store" i) (rstate_at cfg0));
      sessions =
        Array.init clients (fun i ->
            Msim.make ~name:(Printf.sprintf "abd.c%d.session" i) 1);
      breakers = Array.init clients (fun _ -> { state = `Closed });
      reqids = Array.make clients 0;
      views = Array.make clients cfg0;
      manager_node = (if with_manager then Some (clients + pool) else None);
      mgr_reqid = 0;
    }
  in
  current_sim := Some c;
  c

let set_mode c m = c.cc.mode <- m
let set_fenced c b = c.cc.fenced <- b
let set_reconfig_active c b = c.cc.reconfig_active <- b
let clients c = c.cc.clients
let replicas c = c.cc.replicas
let pool c = c.cc.pool
let initial_config c = initial_config_of ~clients:c.cc.clients ~replicas:c.cc.replicas
let pool_nodes c = pool_nodes_of c.cc
let manager_node c = c.manager_node

let the_cluster () =
  match !current_sim with
  | Some c -> c
  | None -> failwith "Net_abd: no simulated cluster installed"

(* True while any client session is open — the retirement condition shared
   by replica fibers and the membership manager. *)
let sessions_open c =
  let rec go i =
    i < c.cc.clients && (Msim.read c.sessions.(i) > 0 || go (i + 1))
  in
  go 0

(* Replica fiber body: serve requests until the inbox is empty and every
   client session is closed.  Usable directly as a restart body — the
   durable state lives in the store cell, not the fiber.  Spares run the
   same body: they idle (no data traffic targets them) until an [Install]
   promotes them.  A retired member keeps draining, sealed, until the
   sessions close. *)
let replica_body c ~index () =
  let rnode = c.cc.clients + index in
  let init_of rid = (Hashtbl.find c.regs rid).init in
  let store = c.stores.(index) in
  let rec loop () =
    match Net.Sim.recv c.net ~self:rnode with
    | Some m ->
        let st = Msim.read store in
        let st', reply = serve ~fenced:c.cc.fenced ~init_of ~rnode st m in
        if st' != st then Msim.write store st';
        (match reply with
        | Some body ->
            Net.Sim.send c.net ~src:rnode ~dst:m.src
              { src = rnode; reqid = m.reqid; epoch = st'.rcfg.epoch; body }
        | None -> ());
        loop ()
    | None -> if sessions_open c then loop () else ()
  in
  loop ()

(* Client wrapper: one bootstrap step (so [Sim.current_pid] is set before
   the first quorum operation), the workload, then close the session so
   replicas may retire.  An [Unavailable] escaping the workload closes the
   session instead of killing the run — the client gave up, the campaign
   carries on.  [close_client] is the matching restart body: closing the
   session is idempotent, so a crash anywhere in the client is safe. *)
let wrap_client c ~pid body () =
  if pid < 0 || pid >= c.cc.clients then invalid_arg "Net_abd.wrap_client";
  ignore (Msim.read c.sessions.(pid));
  (try body () with Unavailable _ -> ());
  Msim.write c.sessions.(pid) 0

let close_client c ~pid () = Msim.write c.sessions.(pid) 0

let sim_ctx c =
  match Sim_k.current_pid () with
  | Some pid when pid < c.cc.clients ->
      {
        ep =
          {
            self = pid;
            send = (fun ~dst m -> Net.Sim.send c.net ~src:pid ~dst m);
            recv = (fun () -> Net.Sim.recv c.net ~self:pid);
            relax = (fun () -> ());
          };
        cc = c.cc;
        fresh =
          (fun () ->
            let id = c.reqids.(pid) + 1 in
            c.reqids.(pid) <- id;
            id);
        view = (fun () -> c.views.(pid));
        adopt = (fun cfg -> c.views.(pid) <- cfg);
        pool_nodes = pool_nodes_of c.cc;
      }
  | Some _ -> failwith "Net_abd: replica fiber called a client memory op"
  | None ->
      failwith
        "Net_abd: client op before the fiber's first scheduling point (run \
         the workload via Net_abd.wrap_client)"

(* The membership manager's endpoint: an ordinary protocol participant on
   its own node, but with an unchasable view — the manager {e is} the
   configuration authority, so [Stale] replies never make it adopt. *)
let manager_ctx c =
  match c.manager_node with
  | None -> failwith "Net_abd.manager_ctx: cluster built without a manager"
  | Some self ->
      {
        ep =
          {
            self;
            send = (fun ~dst m -> Net.Sim.send c.net ~src:self ~dst m);
            recv = (fun () -> Net.Sim.recv c.net ~self);
            relax = (fun () -> ());
          };
        cc = c.cc;
        fresh =
          (fun () ->
            c.mgr_reqid <- c.mgr_reqid + 1;
            c.mgr_reqid);
        view = (fun () -> { epoch = max_int; members = [] });
        adopt = (fun _ -> ());
        pool_nodes = pool_nodes_of c.cc;
      }

(* The epoch a client currently operates under — harness observability. *)
let client_epoch c ~pid = c.views.(pid).epoch

module Sim_mem : Psnap_mem.Mem_intf.S = struct
  type 'a ref_ = reg

  let make ?name ?index v =
    let c = the_cluster () in
    let rid = c.next_rid in
    c.next_rid <- rid + 1;
    let rname =
      match name with
      | Some n -> Psnap_mem.Mem_intf.label ?index n
      | None -> Printf.sprintf "abd%d" rid
    in
    let r = { rid; rname; home = rid mod c.cc.replicas; init = pack v } in
    Hashtbl.replace c.regs rid r;
    r

  (* Outside a run there are no replica fibers: operate on the pre-run
     contents directly.  Inside a run, go through breaker + quorum. *)
  let prerun () = Sim_k.current_serial () = None

  let guarded c f =
    let ctx = sim_ctx c in
    guard_breaker ~cooldown:c.cc.breaker_cooldown c.breakers.(ctx.ep.self)
      (fun () -> f ctx)

  let read r =
    let c = the_cluster () in
    if prerun () then unpack r.init
    else unpack (guarded c (fun ctx -> do_read ctx r))

  let write r v =
    let c = the_cluster () in
    if prerun () then r.init <- pack v
    else guarded c (fun ctx -> do_write ctx r (pack v))

  let cas r ~expected ~desired =
    let c = the_cluster () in
    if prerun () then
      if unpack r.init == expected then begin
        r.init <- pack desired;
        true
      end
      else false
    else
      unpack
        (guarded c (fun ctx ->
             do_rmw ctx r
               (Cas_op { expected = pack expected; desired = pack desired })))

  let fetch_and_add r k =
    let c = the_cluster () in
    if prerun () then begin
      let n : int = unpack r.init in
      r.init <- pack (n + k);
      n
    end
    else unpack (guarded c (fun ctx -> do_rmw ctx r (Faa_op k)))
end

(* ---- multicore cluster (loadgen backend) ---- *)

type mc_cluster = {
  mcc : cconf;
  mnet : msg Net.Mc.t;
  mregs : (int, reg) Hashtbl.t;
  mreg_lock : Mutex.t;
  mutable mnext_rid : int;
  stop : bool Atomic.t;
  claim : int Atomic.t;
  mcfg : config Atomic.t;  (* the active configuration (manager-written) *)
  killed : bool Atomic.t array;  (* per pool replica: permanently dead *)
}

let current_mc : mc_cluster option ref = ref None

let mc_cluster ?(poll_budget = 200_000) ?(max_attempts = 8) ?(spares = 0)
    ?(with_manager = false) ~clients ~replicas () =
  if clients < 1 then invalid_arg "Net_abd.mc_cluster: clients < 1";
  if replicas < 1 then invalid_arg "Net_abd.mc_cluster: replicas < 1";
  if spares < 0 then invalid_arg "Net_abd.mc_cluster: spares < 0";
  let with_manager = with_manager || spares > 0 in
  let pool = replicas + spares in
  let mcc =
    {
      clients;
      replicas;
      pool;
      quorum = (replicas / 2) + 1;
      poll_budget;
      max_attempts;
      mode = Abd;
      fenced = true;
      reconfig_active = false;
      breaker_cooldown = 0;
    }
  in
  let nodes = clients + pool + if with_manager then 1 else 0 in
  let c =
    {
      mcc;
      mnet = Net.Mc.create ~nodes ();
      mregs = Hashtbl.create 64;
      mreg_lock = Mutex.create ();
      mnext_rid = 0;
      stop = Atomic.make false;
      claim = Atomic.make 0;
      mcfg = Atomic.make (initial_config_of ~clients ~replicas);
      killed = Array.init pool (fun _ -> Atomic.make false);
    }
  in
  current_mc := Some c;
  c

let mc_set_fenced c b = c.mcc.fenced <- b
let mc_set_reconfig_active c b = c.mcc.reconfig_active <- b
let mc_config c = Atomic.get c.mcfg
let mc_set_config c cfg = Atomic.set c.mcfg cfg
let mc_manager_node c = c.mcc.clients + c.mcc.pool
let mc_pool_nodes c = pool_nodes_of c.mcc

let mc_stop c =
  Atomic.set c.stop true;
  Net.Mc.wake_all c.mnet

(* Permanently kill one pool replica: its domain body exits at the next
   receive.  The loadgen's replacement for the simulator's
   [replica_death] nemesis. *)
let mc_kill c ~index =
  Atomic.set c.killed.(index) true;
  Net.Mc.wake_all c.mnet

(* Periodic ticker hook: with single-park client receives, a waker
   guarantees parked clients re-check their budgets even when no traffic
   reaches their inbox (e.g. while a dead quorum is being replaced). *)
let mc_wake c = Net.Mc.wake_all c.mnet

(* Replica domain body: local state (the domain is the single writer; no
   crash model under the loadgen), sleep on the inbox until stopped or
   permanently killed. *)
let mc_replica_body c ~index () =
  let rnode = c.mcc.clients + index in
  let init_of rid =
    Mutex.lock c.mreg_lock;
    let r = Hashtbl.find c.mregs rid in
    Mutex.unlock c.mreg_lock;
    r.init
  in
  let st =
    ref (rstate_at (initial_config_of ~clients:c.mcc.clients ~replicas:c.mcc.replicas))
  in
  let rec loop () =
    match
      Net.Mc.recv_wait c.mnet ~self:rnode ~should_stop:(fun () ->
          Atomic.get c.stop || Atomic.get c.killed.(index))
    with
    | Some m ->
        let st', reply = serve ~fenced:c.mcc.fenced ~init_of ~rnode !st m in
        st := st';
        (match reply with
        | Some body ->
            Net.Mc.send c.mnet ~dst:m.src
              { src = rnode; reqid = m.reqid; epoch = st'.rcfg.epoch; body }
        | None -> ());
        loop ()
    | None -> ()
  in
  loop ()

(* Client identity under the loadgen: each domain claims a client node id
   on first use and keeps a domain-local request counter plus its cached
   configuration. *)
type mc_client = { node : int; mutable next_reqid : int; mutable view : config }

let mc_client_key =
  Domain.DLS.new_key (fun () ->
      { node = -1; next_reqid = 0; view = { epoch = 0; members = [] } })

let mc_self c =
  let cl = Domain.DLS.get mc_client_key in
  if cl.node >= 0 then cl
  else begin
    let id = Atomic.fetch_and_add c.claim 1 in
    if id >= c.mcc.clients then
      failwith "Net_abd: more client domains than the cluster was built for";
    let cl = { node = id; next_reqid = 0; view = Atomic.get c.mcfg } in
    Domain.DLS.set mc_client_key cl;
    cl
  end

let mc_ctx c =
  let cl = mc_self c in
  {
    ep =
      {
        self = cl.node;
        send = (fun ~dst m -> Net.Mc.send c.mnet ~dst m);
        recv =
          (* single-park blocking: replies wake the client immediately in
             the healthy case, but a permanently dead quorum only costs
             one wake-up cycle per poll, so [run_phase]'s attempt budget
             still bounds the operation and surfaces [Unavailable] *)
          (fun () ->
            Net.Mc.recv_wait1 c.mnet ~self:cl.node ~should_stop:(fun () ->
                Atomic.get c.stop));
        relax = Domain.cpu_relax;
      };
    cc = c.mcc;
    fresh =
      (fun () ->
        let id = cl.next_reqid + 1 in
        cl.next_reqid <- id;
        id);
    view =
      (fun () ->
        (* a freshly activated configuration reaches parked clients
           through the shared cell, not only through [Stale] chases *)
        let shared = Atomic.get c.mcfg in
        if shared.epoch > cl.view.epoch then cl.view <- shared;
        cl.view);
    adopt = (fun cfg -> cl.view <- cfg);
    pool_nodes = pool_nodes_of c.mcc;
  }

(* The manager's endpoint under the loadgen: driven from the control
   thread.  It parks like the clients do, at most one condition-wait per
   poll, so a phase's poll budget is spent in wall time: a reply wakes it
   at once, and while a quorum of the old members is dead the caller's
   periodic waker ([mc_wake]) lets [run_phase] burn its budget and give
   up cleanly.  Without a waker, a phase facing a dead quorum blocks. *)
let mc_manager_ctx c =
  let self = mc_manager_node c in
  let reqid = ref 0 in
  {
    ep =
      {
        self;
        send = (fun ~dst m -> Net.Mc.send c.mnet ~dst m);
        recv =
          (fun () ->
            Net.Mc.recv_wait1 c.mnet ~self ~should_stop:(fun () ->
                Atomic.get c.stop));
        relax = Domain.cpu_relax;
      };
    cc = c.mcc;
    fresh =
      (fun () ->
        incr reqid;
        !reqid);
    view = (fun () -> { epoch = max_int; members = [] });
    adopt = (fun _ -> ());
    pool_nodes = pool_nodes_of c.mcc;
  }

module Mc_mem : Psnap_mem.Mem_intf.S = struct
  type 'a ref_ = reg

  let the () =
    match !current_mc with
    | Some c -> c
    | None -> failwith "Net_abd: no multicore cluster installed"

  let make ?name ?index v =
    let c = the () in
    Mutex.lock c.mreg_lock;
    let rid = c.mnext_rid in
    c.mnext_rid <- rid + 1;
    let rname =
      match name with
      | Some n -> Psnap_mem.Mem_intf.label ?index n
      | None -> Printf.sprintf "abd%d" rid
    in
    let r = { rid; rname; home = rid mod c.mcc.replicas; init = pack v } in
    Hashtbl.replace c.mregs rid r;
    Mutex.unlock c.mreg_lock;
    r

  let read r =
    let c = the () in
    unpack (do_read (mc_ctx c) r)

  let write r v =
    let c = the () in
    do_write (mc_ctx c) r (pack v)

  let cas r ~expected ~desired =
    let c = the () in
    unpack
      (do_rmw (mc_ctx c) r
         (Cas_op { expected = pack expected; desired = pack desired }))

  let fetch_and_add r k =
    let c = the () in
    unpack (do_rmw (mc_ctx c) r (Faa_op k))
end
