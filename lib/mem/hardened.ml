(* Self-validating and replicated registers: algorithmic hardening against
   the memory-fault model of docs/MODEL.md §9.

   Both constructions are functors over {!Mem_intf.S}, so any algorithm of
   this repository — itself a functor over the same signature — can be
   instantiated over a hardened memory instead of a raw one and survive
   seeded fault campaigns that break the raw variant (EXPERIMENTS.md E15).

   The common mechanism is a {e tagged} value: the payload travels with a
   sequence number, a unique nonce and a checksum over all three.  The
   fault model garbles stored values by flipping an immediate field of the
   stored block ([Corrupt]), serves superseded values ([Stale_read]), drops
   or false-acks writes ([Lost_write]) and freezes cells ([Stuck_cell]);
   tagging makes the first two detectable locally (checksum mismatch,
   sequence regression) and read-back verification catches the third.  A
   single cell cannot survive [Stuck_cell]; that is what {!Replicated} is
   for.

   Hardening is not free: each logical access costs several base-object
   steps (each a scheduling point).  The step counts of the paper's
   theorems apply to the {e logical} accesses; the multiplicative overhead
   is reported by the harness. *)

type 'a tagged = { seq : int; nonce : int; sum : int; v : 'a }

(* The nonce makes every tagged value unique, so (seq, nonce) totally
   orders writes even when two concurrent writers pick the same sequence
   number.  A plain global counter is deterministic under the cooperative
   simulator: allocation order is a function of the schedule. *)
let nonce_counter = ref 0

(* The checksum must not traverse the payload: register payloads are
   routinely mutable shared structures (chunk arrays, views, cells), and
   hashing their transitive contents would spuriously invalidate every
   tagged value whose payload is later mutated in place.  Immediate
   payloads cannot be mutated, so they are folded in; boxed payloads are
   protected by the tag alone — sufficient against the fault model, which
   garbles a stored block by flipping its first immediate field, and for a
   tagged record that field is always [seq]. *)
let payload_hash v =
  let r = Obj.repr v in
  if Obj.is_int r then (Obj.obj r : int) else 0

let checksum ~seq ~nonce v = Hashtbl.hash (seq, nonce, payload_hash v)

let tag ~seq v =
  incr nonce_counter;
  let nonce = !nonce_counter in
  { seq; nonce; sum = checksum ~seq ~nonce v; v }

let valid t = t.sum = checksum ~seq:t.seq ~nonce:t.nonce t.v

let newer a b = a.seq > b.seq || (a.seq = b.seq && a.nonce > b.nonce)

(* How many times an operation re-runs its fault-recovery path before
   giving up and serving the last known-good value.  Each armed fault
   fires at most once per arming, so a small bound suffices; the bound
   exists so a stuck cell cannot turn a read into an unbounded loop. *)
let retry_limit = 4

(* ---- detection / repair accounting (surfaced via Metrics) ---- *)

type stats = {
  corrupt_detected : int;  (** checksum mismatches observed *)
  stale_detected : int;  (** sequence regressions observed *)
  lost_detected : int;  (** read-back verifications that found a write
                            missing (dropped or false-acked) *)
  repairs : int;  (** repair writes issued (read-repair + re-installs) *)
  retries : int;  (** operation-level retries after a detected fault *)
}

let s_corrupt = ref 0

let s_stale = ref 0

let s_lost = ref 0

let s_repairs = ref 0

let s_retries = ref 0

let stats () =
  {
    corrupt_detected = !s_corrupt;
    stale_detected = !s_stale;
    lost_detected = !s_lost;
    repairs = !s_repairs;
    retries = !s_retries;
  }

let reset_stats () =
  s_corrupt := 0;
  s_stale := 0;
  s_lost := 0;
  s_repairs := 0;
  s_retries := 0

let note_corrupt () = incr s_corrupt

let note_stale () = incr s_stale

let note_lost () = incr s_lost

let note_repair () = incr s_repairs

let note_retry () = incr s_retries

(* ---- single-cell self-validation ---- *)

module Selfcheck (M : Mem_intf.S) : Mem_intf.S = struct
  (* [cache] is the newest validly-tagged value any operation has seen:
     the detector's reference point for sequence regressions and the
     donor value for repairing a corrupted cell.  It lives outside [M] on
     purpose — it is the register's own metadata, not a shared base
     object, and mutating it costs no step (cooperative simulator: no
     interleaving within an operation's local code). *)
  type 'a ref_ = { cell : 'a tagged M.ref_; mutable cache : 'a tagged }

  let make ?(name = "hard") ?index v =
    let t0 = tag ~seq:1 v in
    { cell = M.make ~name ?index t0; cache = t0 }

  let seen t cur = if newer cur t.cache then t.cache <- cur

  (* Repair a detected-bad [cur] with the last known-good value.  CAS
     rather than a blind write: if the cell changed since we read it, the
     newer contents must not be clobbered. *)
  let repair t cur = ignore (M.cas t.cell ~expected:cur ~desired:t.cache);
    note_repair ()

  let read t =
    let rec go attempts =
      let cur = M.read t.cell in
      if not (valid cur) then begin
        note_corrupt ();
        repair t cur;
        if attempts < retry_limit then begin
          note_retry ();
          go (attempts + 1)
        end
        else t.cache.v
      end
      else if newer t.cache cur then begin
        note_stale ();
        if attempts < retry_limit then begin
          note_retry ();
          go (attempts + 1)
        end
        else t.cache.v
      end
      else begin
        seen t cur;
        cur.v
      end
    in
    go 0

  let write t v =
    let nt = tag ~seq:(t.cache.seq + 1) v in
    let rec install attempts =
      M.write t.cell nt;
      let back = M.read t.cell in
      if back == nt || (valid back && newer back nt) then ()
      else begin
        (* The write vanished (lost, or the cell is stuck): a raw register
           would silently diverge here. *)
        note_lost ();
        if attempts < retry_limit then begin
          note_retry ();
          note_repair ();
          install (attempts + 1)
        end
      end
    in
    install 0;
    seen t nt

  let cas t ~expected ~desired =
    (* [installed] carries the tagged value of a CAS that was acknowledged
       but not found by the verification read, so a retry that discovers
       it did land (e.g. the verification read itself was served stale)
       reports success exactly once. *)
    let rec attempt attempts installed =
      let cur = M.read t.cell in
      match installed with
      | Some nt when cur == nt || (valid cur && newer cur nt) ->
        seen t nt;
        true
      | _ ->
        if not (valid cur) then begin
          note_corrupt ();
          repair t cur;
          if attempts < retry_limit then begin
            note_retry ();
            attempt (attempts + 1) installed
          end
          else false
        end
        else if newer t.cache cur then begin
          note_stale ();
          if attempts < retry_limit then begin
            note_retry ();
            attempt (attempts + 1) installed
          end
          else false
        end
        else if cur.v != expected then begin
          seen t cur;
          false
        end
        else begin
          let nt = tag ~seq:(cur.seq + 1) desired in
          if M.cas t.cell ~expected:cur ~desired:nt then begin
            let back = M.read t.cell in
            if back == nt || (valid back && newer back nt) then begin
              seen t nt;
              true
            end
            else begin
              (* Acknowledged-but-lost CAS: the nastiest [Lost_write]. *)
              note_lost ();
              if attempts < retry_limit then begin
                note_retry ();
                attempt (attempts + 1) (Some nt)
              end
              else false
            end
          end
          else false
        end
    in
    attempt 0 None

  let fetch_and_add t k =
    let rec go () =
      let old = read t in
      if cas t ~expected:old ~desired:(old + k) then old else go ()
    in
    go ()
end

(* ---- k-fold replication with majority read and read-repair ---- *)

module Replicated (M : Mem_intf.S) (K : sig
  val k : int
end) : Mem_intf.S = struct
  let () =
    if K.k < 1 then invalid_arg "Hardened.Replicated: k must be positive"

  (* Tolerates ⌊(k-1)/2⌋ simultaneously faulty replicas: a read needs one
     surviving validly-tagged copy of the newest value, and CAS commits at
     a designated replica, failing over when that replica stops accepting
     writes.  [cache] plays the same roles as in {!Selfcheck}. *)
  type 'a ref_ = {
    cells : 'a tagged M.ref_ array;
    mutable cache : 'a tagged;
    mutable commit : int;  (** index of the replica where CAS linearizes;
                               advanced when that replica is found stuck *)
  }

  let make ?(name = "rep") ?index v =
    let t0 = tag ~seq:1 v in
    let name = Mem_intf.label ?index name in
    {
      cells =
        Array.init K.k (fun i ->
            M.make ~name:(Printf.sprintf "%s/%d" name i) t0);
      cache = t0;
      commit = 0;
    }

  let seen t cur = if newer cur t.cache then t.cache <- cur

  (* CAS-guarded repair (never clobbers a value newer than [w]); returns
     false when the cell kept its bad contents — the stuck-cell smell. *)
  let repair_cell cell ~bad ~good =
    note_repair ();
    M.cas cell ~expected:bad ~desired:good

  let read t =
    let rec go attempts =
      let vals = Array.map M.read t.cells in
      let best = ref None in
      Array.iter
        (fun c ->
          if valid c then
            match !best with
            | Some b when not (newer c b) -> ()
            | _ -> best := Some c
          else note_corrupt ())
        vals;
      match !best with
      | None ->
        (* Every replica garbled at once: reseed all of them from the last
           known-good value. *)
        Array.iteri
          (fun i c -> ignore (repair_cell t.cells.(i) ~bad:c ~good:t.cache))
          vals;
        if attempts < retry_limit then begin
          note_retry ();
          go (attempts + 1)
        end
        else t.cache.v
      | Some w ->
        if newer t.cache w then begin
          (* The newest surviving replica is older than a value already
             observed: a stale regression across the whole array. *)
          note_stale ();
          Array.iteri
            (fun i c ->
              if newer t.cache c || not (valid c) then
                ignore (repair_cell t.cells.(i) ~bad:c ~good:t.cache))
            vals;
          if attempts < retry_limit then begin
            note_retry ();
            go (attempts + 1)
          end
          else t.cache.v
        end
        else begin
          seen t w;
          (* Read-repair: bring garbled and lagging replicas up to the
             winner so a single fault does not accumulate. *)
          Array.iteri
            (fun i c ->
              if c != w && (not (valid c) || newer w c) then
                ignore (repair_cell t.cells.(i) ~bad:c ~good:w))
            vals;
          w.v
        end
    in
    go 0

  let write t v =
    let nt = tag ~seq:(t.cache.seq + 1) v in
    Array.iter
      (fun cell ->
        let rec install attempts =
          let cur = M.read cell in
          if cur == nt || (valid cur && newer cur nt) then ()
          else if M.cas cell ~expected:cur ~desired:nt then begin
            let back = M.read cell in
            if back == nt || (valid back && newer back nt) then ()
            else begin
              note_lost ();
              if attempts < retry_limit then begin
                note_retry ();
                note_repair ();
                install (attempts + 1)
              end
              (* else: this replica refuses the write (stuck) — the
                 majority of the others carries the value. *)
            end
          end
          else if attempts < retry_limit then begin
            note_retry ();
            install (attempts + 1)
          end
        in
        install 0)
      t.cells;
    seen t nt

  (* After a successful commit, push the committed value to the other
     replicas so reads keep finding it even if the commit replica is the
     next fault victim. *)
  let propagate t nt =
    Array.iteri
      (fun i cell ->
        if i <> t.commit then begin
          let cur = M.read cell in
          if not (valid cur) || newer nt cur then
            ignore (repair_cell cell ~bad:cur ~good:nt)
        end)
      t.cells

  let fail_over t = t.commit <- (t.commit + 1) mod K.k

  let cas t ~expected ~desired =
    let rec attempt attempts installed =
      let cell = t.cells.(t.commit) in
      let cur = M.read cell in
      match installed with
      | Some nt when cur == nt || (valid cur && newer cur nt) ->
        seen t nt;
        propagate t nt;
        true
      | _ ->
        if not (valid cur) then begin
          note_corrupt ();
          if
            (not (repair_cell cell ~bad:cur ~good:t.cache))
            && M.read cell == cur
          then fail_over t;
          if attempts < retry_limit then begin
            note_retry ();
            attempt (attempts + 1) installed
          end
          else false
        end
        else if newer t.cache cur then begin
          note_stale ();
          if
            (not (repair_cell cell ~bad:cur ~good:t.cache))
            && M.read cell == cur
          then fail_over t;
          if attempts < retry_limit then begin
            note_retry ();
            attempt (attempts + 1) installed
          end
          else false
        end
        else if cur.v != expected then begin
          seen t cur;
          false
        end
        else begin
          let nt = tag ~seq:(cur.seq + 1) desired in
          if M.cas cell ~expected:cur ~desired:nt then begin
            let back = M.read cell in
            if back == nt || (valid back && newer back nt) then begin
              seen t nt;
              propagate t nt;
              true
            end
            else begin
              note_lost ();
              fail_over t;
              if attempts < retry_limit then begin
                note_retry ();
                attempt (attempts + 1) (Some nt)
              end
              else false
            end
          end
          else false
        end
    in
    attempt 0 None

  let fetch_and_add t k =
    let rec go () =
      let old = read t in
      if cas t ~expected:old ~desired:(old + k) then old else go ()
    in
    go ()
end
