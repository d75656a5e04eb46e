(** Per-operation step accounting, contention measures, and the counter
    registry.

    A {!sample} records, for one high-level operation instance (a [scan], an
    [update], a [join], ...), how many shared-memory steps its process
    executed on its behalf and the stamp interval during which it was
    active.  From the intervals we compute the paper's contention measures
    (Section 2): interval contention [C] (number of operations whose active
    intervals overlap) and point contention [Ċ] (maximum number
    simultaneously active). *)

type sample = {
  pid : int;
  kind : string;
  steps : int;
  inv : int;  (** stamp at invocation *)
  resp : int;  (** stamp at response *)
}

type recorder = { mutable samples : sample list }

let create () = { samples = [] }

let samples r = List.rev r.samples

(** [measure r ~pid ~kind f] runs [f] as one operation of [pid], recording
    its own-step count and active interval.  Must run inside [Sim.run]. *)
let measure r ~pid ~kind f =
  let s0 = Sim.steps_of pid in
  let inv = Sim.mark () in
  let y = f () in
  let resp = Sim.mark () in
  let s1 = Sim.steps_of pid in
  r.samples <- { pid; kind; steps = s1 - s0; inv; resp } :: r.samples;
  y

let by_kind r kind = List.filter (fun s -> s.kind = kind) (samples r)

let total_steps ss = List.fold_left (fun a s -> a + s.steps) 0 ss

let max_steps ss = List.fold_left (fun a s -> max a s.steps) 0 ss

let mean_steps ss =
  match ss with
  | [] -> 0.
  | _ -> float_of_int (total_steps ss) /. float_of_int (List.length ss)

let overlaps a b = a.inv < b.resp && b.inv < a.resp

(** Interval contention of operation [s] among [all] (including [s]
    itself, as in the paper's definition of [C(op)]). *)
let interval_contention all s =
  List.length (List.filter (fun o -> overlaps s o) all)

(** Maximum interval contention over a set of operations. *)
let max_interval_contention ?(over = fun (_ : sample) -> true) all =
  List.fold_left
    (fun acc s -> if over s then max acc (interval_contention all s) else acc)
    0 all

(** Point contention of [s]: the maximum number of operations of [all]
    simultaneously active at some stamp within [s]'s interval.  Computed by
    sweeping invocation/response endpoints. *)
let point_contention all s =
  let events =
    List.concat_map
      (fun o -> if overlaps s o then [ (o.inv, 1); (o.resp, -1) ] else [])
      all
    |> List.sort compare
  in
  let cur = ref 0 and best = ref 0 in
  List.iter
    (fun (t, d) ->
      cur := !cur + d;
      if t >= s.inv && t <= s.resp then best := max !best !cur)
    events;
  !best

let max_point_contention ?(over = fun (_ : sample) -> true) all =
  List.fold_left
    (fun acc s -> if over s then max acc (point_contention all s) else acc)
    0 all

(** {2 Escape sanitizer} *)

type sanitizer = {
  strict : bool;  (** strict mode currently enabled *)
  checked : int;  (** accesses guarded since the last reset *)
  escaped : int;  (** accesses that raised {!Mem_sim.Escape} *)
}

let sanitizer () =
  let checked, escaped = Mem_sim.sanitizer_counts () in
  { strict = Mem_sim.strict_mode (); checked; escaped }

let reset_sanitizer = Mem_sim.reset_sanitizer

let pp_sanitizer ppf s =
  Format.fprintf ppf "sanitizer: strict=%b checked=%d escaped=%d" s.strict
    s.checked s.escaped

(** {2 Counter registry} *)

type counter = { name : string; help : string; cell : int Atomic.t }

type group = { title : string; mutable counters : counter list }

let incr c = Atomic.incr c.cell

let add c k = ignore (Atomic.fetch_and_add c.cell k)

let get c = Atomic.get c.cell

let help c = c.help

let counters g = g.counters

(* Appends a counter to its group; runs only while this module
   initialises, so the group's list is never mutated concurrently. *)
let counter g name help =
  let c = { name; help; cell = Atomic.make 0 } in
  g.counters <- g.counters @ [ c ];
  c

let reset g = List.iter (fun c -> Atomic.set c.cell 0) g.counters

type reading = { group : string; values : (string * int) list }

let read g =
  { group = g.title; values = List.map (fun c -> (c.name, get c)) g.counters }

let pp ppf r =
  Format.fprintf ppf "%s:" r.group;
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) r.values

let fields r = List.map (fun (k, v) -> (k, string_of_int v)) r.values

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

module Serving = struct
  let group = { title = "serving"; counters = [] }
  let c = counter group
  let scan_rounds =
    c "scan_rounds"
      "scan rounds: a sharded scan's collects, plus one for a single-shard \
       fallback sub-scan (1 per relaxed cross-shard scan); a resilient \
       scan's collects outside sub-scans (2 for a single-shard scan, also \
       after its fallback; 1 when open shards leave it to sub-scans alone)"
  let scan_retries =
    c "scan_retries"
      "rounds beyond the validating pair: a sharded fallback counts one, a \
       resilient one none"
  let scan_fallbacks =
    c "scan_fallbacks"
      "single-shard scans whose double collect disagreed and ran a sub-scan"
  let degraded_scans = c "degraded_scans" "scans returning Degraded"
  let backoff_steps = c "backoff_steps" "base reads spent backing off"
  let breaker_opens = c "breaker_opens" "circuit transitions into Open"
  let breaker_half_opens = c "breaker_half_opens" "transitions into Half_open"
  let breaker_closes = c "breaker_closes" "transitions back into Closed"
  let heals_started = c "heals_started" "shard rebuilds initiated (sealed)"
  let heals_completed = c "heals_completed" "rebuilds swapped in atomically"
  let heals_aborted = c "heals_aborted" "rebuilds abandoned (quiescence)"
  let stuck_epochs = c "stuck_epochs" "non-monotone epoch draws by updates"
end

module Durable = struct
  let group = { title = "durable"; counters = [] }
  let c = counter group
  let wal_appends = c "wal_appends" "records appended to a WAL"
  let wal_syncs = c "wal_syncs" "storage sync barriers issued"
  let wal_bytes = c "wal_bytes" "total bytes appended"
  let commits = c "commits" "durable updates acknowledged"
  let checkpoints = c "checkpoints" "sealed checkpoint triples written"
  let recoveries = c "recoveries" "recovery passes executed"
  let replayed_updates = c "replayed_updates" "records re-applied on recovery"
  let truncated_bytes = c "truncated_bytes" "log-tail bytes discarded"
  let discarded_bytes = c "discarded_bytes" "log-prefix bytes checkpoints dropped"
  let torn_records = c "torn_records" "recoveries that cut a torn record"
  let corrupt_records = c "corrupt_records" "recoveries that hit a bad CRC"
  let power_losses = c "power_losses" "power losses seen by storage devices"
end

module Net = struct
  let group = { title = "net"; counters = [] }
  let c = counter group
  let sends = c "sends" "messages enqueued on a link"
  let delivers = c "delivers" "messages received by a node"
  let net_drops = c "net_drops" "injected Drop_msg effects"
  let net_dups = c "net_dups" "injected Dup_msg effects"
  let net_delays = c "net_delays" "injected Delay_msg effects"
  let net_cuts = c "net_cuts" "injected Cut_link effects"
  let net_heals = c "net_heals" "injected Heal_link effects"
  let quorum_rounds = c "quorum_rounds" "completed Get or Put quorum phases"
  let resends = c "resends" "rebroadcasts beyond each phase's first"
  let writebacks = c "writebacks" "read-repair write-back rounds executed"
  let writeback_skips = c "writeback_skips" "write-backs soundly skipped"
  let unavailable = c "unavailable" "operations that raised Unavailable"
  let quorum_ops = c "quorum_ops" "completed quorum operations"
  let quorum_wait = c "quorum_wait" "poll-steps spent awaiting quorums"

  let fault : Event.net_fault_kind -> counter = function
    | Event.Drop_msg -> net_drops
    | Event.Dup_msg -> net_dups
    | Event.Delay_msg -> net_delays
    | Event.Cut_link -> net_cuts
    | Event.Heal_link -> net_heals

  let mean_quorum_wait () = ratio (get quorum_wait) (get quorum_ops)
end

module Reconfig = struct
  let group = { title = "reconfig"; counters = [] }
  let c = counter group
  let reconfigs = c "reconfigs" "reconfigurations completed end-to-end"
  let seals = c "seals" "old configurations sealed (phase 1)"
  let transfers = c "transfers" "registers transferred to a new epoch"
  let activations = c "activations" "new configurations activated (phase 2)"
  let stale_rejects = c "stale_rejects" "requests fenced off by epoch"
  let epoch_chases = c "epoch_chases" "retries after adopting a newer config"
  let suspicions = c "suspicions" "replicas suspected by the health layer"
  let replacements = c "replacements" "replacement configs auto-proposed"
  let churn_requests = c "churn_requests" "Scheduler.Reconfig decisions taken"
  let naive_swaps = c "naive_swaps" "unfenced membership swaps (naive mode)"
end

module Txn = struct
  let group = { title = "txn"; counters = [] }
  let c = counter group
  let begins = c "begins" "transactions begun"
  let ro_commits = c "ro_commits" "read-only commits (never validated)"
  let rw_commits = c "rw_commits" "read-write commits published"
  let conflicts = c "conflicts" "first-committer-wins validation aborts"
  let busy_aborts = c "busy_aborts" "commit-descriptor acquisition exhausted"
  let voluntary_aborts = c "voluntary_aborts" "explicit abort calls"
  let lww_overwrites = c "lww_overwrites" "unsound-mode lost-update risks"
  let resumes = c "resumes" "dead incarnations' descriptors finished"
  let pruned_versions = c "pruned_versions" "versions pruned below watermark"

  let abort_rate () =
    let failed = get conflicts + get busy_aborts in
    ratio failed (get rw_commits + failed)
end

type net = {
  sends : int;
  delivers : int;
  drops : int;
  dups : int;
  delays : int;
  cuts : int;
  heals : int;
  rounds : int;
  resends : int;
  writebacks : int;
  writeback_skips : int;
  unavailable : int;
  quorum_ops : int;
  quorum_wait : int;
}

let net () =
  let open Net in
  {
    sends = get sends;
    delivers = get delivers;
    drops = get net_drops;
    dups = get net_dups;
    delays = get net_delays;
    cuts = get net_cuts;
    heals = get net_heals;
    rounds = get quorum_rounds;
    resends = get resends;
    writebacks = get writebacks;
    writeback_skips = get writeback_skips;
    unavailable = get unavailable;
    quorum_ops = get quorum_ops;
    quorum_wait = get quorum_wait;
  }

let reset_net () = reset Net.group

(** {2 Memory faults} *)

type fault_line = {
  kind : Event.fault_kind;
  injected : int;
  absorbed : int;
  fired : int;
}

type mem_faults = {
  per_kind : fault_line list;
  hardened : Psnap_mem.Hardened.stats;
}

let mem_faults () =
  {
    per_kind =
      List.map
        (fun kind ->
          let c = Mem_sim.fault_counts kind in
          {
            kind;
            injected = c.Mem_sim.injected;
            absorbed = c.Mem_sim.absorbed;
            fired = c.Mem_sim.fired;
          })
        Event.all_fault_kinds;
    hardened = Psnap_mem.Hardened.stats ();
  }

let reset_mem_faults () =
  Mem_sim.reset_fault_counts ();
  Psnap_mem.Hardened.reset_stats ()

let total_injected m =
  List.fold_left (fun a l -> a + l.injected) 0 m.per_kind

let total_detected m =
  let h = m.hardened in
  h.Psnap_mem.Hardened.corrupt_detected + h.stale_detected + h.lost_detected

let pp_mem_faults ppf m =
  List.iter
    (fun l ->
      if l.injected + l.absorbed + l.fired > 0 then
        Format.fprintf ppf "fault %-7s injected=%d absorbed=%d fired=%d@."
          (Event.fault_kind_to_string l.kind)
          l.injected l.absorbed l.fired)
    m.per_kind;
  let h = m.hardened in
  Format.fprintf ppf
    "hardened: corrupt=%d stale=%d lost=%d repairs=%d retries=%d"
    h.Psnap_mem.Hardened.corrupt_detected h.stale_detected h.lost_detected
    h.repairs h.retries
