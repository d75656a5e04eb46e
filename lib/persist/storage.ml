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

  val with_contents : t -> (string -> int -> 'a) -> 'a

  val truncate : t -> int -> unit

  val discard_prefix : t -> int -> unit

  val losses : t -> int
end

(* The bytes a device owns: a growable buffer and the length of the log
   in it.  Unlike [Buffer.t], it hands its bytes to a reader without a
   copy, truncation only moves the length, and discarding a prefix moves
   the suffix to the front of the same buffer. *)
module Log = struct
  type t = { mutable bytes : Bytes.t; mutable len : int }

  let create capacity = { bytes = Bytes.create capacity; len = 0 }

  let add l s =
    let n = String.length s in
    let need = l.len + n in
    if need > Bytes.length l.bytes then begin
      let grown = Bytes.create (max need (2 * Bytes.length l.bytes)) in
      Bytes.blit l.bytes 0 grown 0 l.len;
      l.bytes <- grown
    end;
    Bytes.blit_string s 0 l.bytes l.len n;
    l.len <- need

  let contents l f = f (Bytes.unsafe_to_string l.bytes) l.len

  (* The kept length, clamped to the log. *)
  let truncate l n =
    l.len <- max 0 (min n l.len);
    l.len

  (* [Bytes.blit] copies overlapping ranges correctly. *)
  let discard l n =
    Bytes.blit l.bytes n l.bytes 0 (l.len - n);
    l.len <- l.len - n
end

module Metrics = Psnap_sched.Metrics

module Sim = struct
  type t = {
    dev_name : string;
    oid : int;  (** pseudo-cell id: device steps appear in traces and are
                    targetable by name-based nemeses like real cells *)
    log : Log.t;
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
        log = Log.create 256;
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
    Log.add t.log s;
    Metrics.incr Metrics.Durable.wal_appends;
    Metrics.add Metrics.Durable.wal_bytes (String.length s)

  (* [sync] steps as a distinct op kind (F&A) so nemeses can target "the
     barrier step" as opposed to "the append step" via [view.op_of]. *)
  let sync t =
    step t Psnap_sched.Event.Faa;
    t.synced <- t.log.len;
    Metrics.incr Metrics.Durable.wal_syncs

  let size t = t.log.len

  let with_contents t f = Log.contents t.log f

  let truncate t n = t.synced <- Log.truncate t.log n

  (* One step, like an append: the adversary can cut power before it, and
     then the log keeps its prefix.  Only synced bytes may go, so the
     unsynced tail, and with it what a power loss may tear, is the same
     before and after. *)
  let discard_prefix t n =
    step t Psnap_sched.Event.Write;
    if n < 0 || n > t.synced then invalid_arg "Storage.Sim.discard_prefix";
    Log.discard t.log n;
    t.synced <- t.synced - n

  let losses t = t.losses

  (* The power-loss dispatcher: every registered device keeps its durable
     prefix plus a deterministic torn fragment of its write cache, and
     remembers the blackout.  Returns the number of devices that actually
     dropped bytes. *)
  let apply_power_loss () =
    let hit = ref 0 in
    List.iter
      (fun t ->
        let len = t.log.len in
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

(* The multicore device: a mutex-guarded in-memory log.  There is no
   power loss on the real host, so no write cache either: [sync] only
   counts the barrier.  What the loadgen measures through this backend is
   the serialization and locking cost durability adds to every update. *)
module Mc = struct
  type t = { dev_name : string; lock : Mutex.t; log : Log.t }

  let create ~name =
    { dev_name = name; lock = Mutex.create (); log = Log.create 4096 }

  let name t = t.dev_name

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  (* The per-commit append locks and unlocks directly, without a
     [Fun.protect] closure per call: its body does not raise, short of
     running out of memory. *)
  let append t s =
    Mutex.lock t.lock;
    Log.add t.log s;
    Mutex.unlock t.lock;
    Metrics.incr Metrics.Durable.wal_appends;
    Metrics.add Metrics.Durable.wal_bytes (String.length s)

  let sync _ = Metrics.incr Metrics.Durable.wal_syncs

  let size t = locked t (fun () -> t.log.len)

  let with_contents t f = locked t (fun () -> Log.contents t.log f)

  let truncate t n = locked t (fun () -> ignore (Log.truncate t.log n))

  let discard_prefix t n =
    locked t (fun () ->
        if n < 0 || n > t.log.len then invalid_arg "Storage.Mc.discard_prefix";
        Log.discard t.log n)

  let losses _ = 0
end
