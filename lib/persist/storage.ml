(* Pluggable durable storage for the write-ahead log (docs/MODEL.md §13).
   See storage.mli for the model; the Sim backend is the fault-injectable
   device the power-loss nemesis acts on. *)

module type S = sig
  type t

  val create : name:string -> t

  val name : t -> string

  val append : t -> string -> unit

  val sync : t -> unit

  val size : t -> int

  val synced_size : t -> int

  val read : t -> string

  val durable_read : t -> string

  val truncate : t -> int -> unit

  val losses : t -> int
end

module Metrics = Psnap_sched.Metrics

module Sim = struct
  type t = {
    dev_name : string;
    oid : int;  (** pseudo-cell id: device steps appear in traces and are
                    targetable by name-based nemeses like real cells *)
    buf : Buffer.t;
    mutable synced : int;  (** bytes covered by a completed [sync] *)
    mutable losses : int;
  }

  (* Devices subject to the power-loss dispatcher.  Like [Mem_sim]'s fault
     registry: devices of finished runs linger until [reset], which is
     harmless (mutating a dead run's device is unobservable) and keeps
     registration O(1).  Harnesses reset between runs. *)
  let devices : t list ref = ref []

  let dispatched = ref 0

  let reset () =
    devices := [];
    dispatched := 0

  let default_torn_policy ~unsynced = unsynced / 2

  let torn_policy = ref default_torn_policy

  let set_torn_policy f = torn_policy := f

  let losses_total () = !dispatched

  let create ~name =
    let t =
      {
        dev_name = name;
        oid = Psnap_sched.Sim.fresh_oid ();
        buf = Buffer.create 256;
        synced = 0;
        losses = 0;
      }
    in
    devices := t :: !devices;
    t

  let name t = t.dev_name

  (* One simulated step per device operation, charged like a shared-memory
     access so the adversary can schedule (or crash, or cut power) around
     it.  Outside a run — WAL unit tests, recovery-time repair — device
     operations are free, like cell allocation. *)
  let step t op =
    if Psnap_sched.Sim.current_serial () <> None then
      Psnap_sched.Sim.step { oid = t.oid; obj_name = t.dev_name; op }

  let append t s =
    step t Psnap_sched.Event.Write;
    Buffer.add_string t.buf s;
    Metrics.incr Metrics.Durable.wal_appends;
    Metrics.add Metrics.Durable.wal_bytes (String.length s)

  (* [sync] steps as a distinct op kind (F&A) so nemeses can target "the
     barrier step" as opposed to "the append step" via [view.op_of]. *)
  let sync t =
    step t Psnap_sched.Event.Faa;
    t.synced <- Buffer.length t.buf;
    Metrics.incr Metrics.Durable.wal_syncs

  let size t = Buffer.length t.buf

  let synced_size t = t.synced

  let read t = Buffer.contents t.buf

  let durable_read t = String.sub (Buffer.contents t.buf) 0 t.synced

  let truncate t n =
    let n = max 0 (min n (Buffer.length t.buf)) in
    let s = Buffer.sub t.buf 0 n in
    Buffer.clear t.buf;
    Buffer.add_string t.buf s;
    t.synced <- n

  let losses t = t.losses

  (* The power-loss dispatcher: every registered device keeps its durable
     prefix plus a deterministic torn fragment of its write cache, and
     remembers the blackout.  Returns the number of devices that actually
     dropped bytes. *)
  let apply_power_loss () =
    let hit = ref 0 in
    List.iter
      (fun t ->
        let len = Buffer.length t.buf in
        if len > t.synced then begin
          let unsynced = len - t.synced in
          let torn = max 0 (min unsynced (!torn_policy ~unsynced)) in
          truncate t (t.synced + torn);
          incr hit
        end;
        (* Counted even when nothing dropped: the machine lost power, so
           any in-memory state paired with this log is gone regardless. *)
        t.losses <- t.losses + 1)
      !devices;
    incr dispatched;
    Metrics.incr Metrics.Durable.power_losses;
    !hit

  let () = Psnap_sched.Sim.set_power_loss_dispatcher apply_power_loss
end

(* The multicore device: a mutex-guarded in-memory log.  [sync] is a
   bookkeeping barrier (there is no simulated power loss on the real
   host); what the loadgen measures through this backend is the
   serialization + locking cost durability adds to every update. *)
module Mc = struct
  type t = {
    dev_name : string;
    lock : Mutex.t;
    buf : Buffer.t;
    mutable synced : int;
  }

  let create ~name =
    { dev_name = name; lock = Mutex.create (); buf = Buffer.create 4096; synced = 0 }

  let name t = t.dev_name

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  (* The two per-commit operations lock and unlock directly, without a
     [Fun.protect] closure per call: neither body raises, short of running
     out of memory. *)
  let append t s =
    Mutex.lock t.lock;
    Buffer.add_string t.buf s;
    Mutex.unlock t.lock;
    Metrics.incr Metrics.Durable.wal_appends;
    Metrics.add Metrics.Durable.wal_bytes (String.length s)

  let sync t =
    Mutex.lock t.lock;
    t.synced <- Buffer.length t.buf;
    Mutex.unlock t.lock;
    Metrics.incr Metrics.Durable.wal_syncs

  let size t = locked t (fun () -> Buffer.length t.buf)

  let synced_size t = locked t (fun () -> t.synced)

  let read t = locked t (fun () -> Buffer.contents t.buf)

  let durable_read t =
    locked t (fun () -> String.sub (Buffer.contents t.buf) 0 t.synced)

  let truncate t n =
    locked t (fun () ->
        let n = max 0 (min n (Buffer.length t.buf)) in
        let s = Buffer.sub t.buf 0 n in
        Buffer.clear t.buf;
        Buffer.add_string t.buf s;
        t.synced <- n)

  let losses _ = 0
end
