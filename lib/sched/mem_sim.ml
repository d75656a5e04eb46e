(* The MEM backend that turns every shared access into one simulator step.
   Must be used from code running inside Sim.run; the Step effect is handled
   by the simulation kernel.

   The suspension happens *before* the access: [Sim.step] performs the
   effect, and the code after it — the actual read/write/CAS — executes
   atomically when the scheduler resumes the fiber.  Since the simulator is
   cooperative, nothing can interleave between resumption and the access. *)

type 'a ref_ = {
  mutable v : 'a;
  oid : int;
  name : string;
  born : int;  (** serial of the run that allocated the cell; -1 outside *)
  mutable hist : 'a list;
      (** superseded values, newest first, capped at {!history_depth}; the
          material [Stale_read] and history-swap [Corrupt] faults draw on *)
  mutable lose_next : int;  (** pending [Lost_write] faults on this cell *)
  mutable stale_next : int;  (** pending [Stale_read] faults on this cell *)
  mutable stuck : bool;  (** [Stuck_cell]: permanently refuses writes *)
  plain : bool;
      (** [make_plain] cell: models an {e unsynchronized} location (a raw
          [ref] or mutable field shared across domains).  Reads and writes
          create no happens-before edges and are checked by {!Race};
          default cells are atomic and synchronize.  *)
}

(* Base objects allocated since the last reset — the space measure of the
   paper's concluding remarks ("the number of registers used ... is bounded
   only by the number of operations performed").  Allocation costs no step;
   this counter only supports the space experiments. *)
let allocated = ref 0

let allocations () = !allocated

let reset_allocations () = allocated := 0

(* Strict mode: the dynamic face of the no-escape discipline (docs/MODEL.md,
   "Memory discipline").  Every access must happen at a scheduling point of
   the *current* run: an access outside any run, or to a cell born in an
   earlier run, is a simulator escape — state flowing around the
   step-counting machinery — and raises [Escape].  Cells allocated outside
   any run ([born = -1], e.g. built in test setup before [Sim.run]) are
   legitimate in every run. *)

exception Escape of string

let strict = ref false

let strict_checks = ref 0

let strict_escapes = ref 0

let set_strict b = strict := b

let strict_mode () = !strict

let sanitizer_counts () = (!strict_checks, !strict_escapes)

let reset_sanitizer () =
  strict_checks := 0;
  strict_escapes := 0

let guard r op =
  if !strict then begin
    incr strict_checks;
    let fail fmt =
      incr strict_escapes;
      Printf.ksprintf (fun s -> raise (Escape s)) fmt
    in
    match Sim.current_serial () with
    | None ->
      fail
        "%s of cell %s (oid %d) outside any Sim.run: the access takes no \
         simulator step, so it is invisible to the step counts"
        op r.name r.oid
    | Some serial ->
      if r.born >= 0 && r.born <> serial then
        fail
          "%s of cell %s (oid %d) born in run #%d from run #%d: cells \
           created inside a run must not leak into another"
          op r.name r.oid r.born serial
  end

(* ---- memory faults (docs/MODEL.md §9) ----

   Fault decisions arrive from the scheduler through [Sim]'s dispatcher;
   the typed cells live here, so this module owns both the application of a
   fault to a cell and the per-kind accounting.  [Corrupt] and [Stuck_cell]
   take effect at decision time; [Lost_write] and [Stale_read] are {e
   armed} at decision time and {e fire} at the cell's next matching access.
   Every effect is a deterministic function of the cell's state, so a
   recorded fault schedule replays (and ddmin-shrinks) exactly. *)

let history_depth = 8

(* Forward declaration of the tracking flag so the hot write path can skip
   history capture entirely when fault injection is off. *)
let tracking = ref false

let push_hist r ~next =
  if !tracking && next != r.v then
    r.hist <-
      r.v :: List.filteri (fun i _ -> i < history_depth - 1) r.hist

(* A garbled-but-typed variant of [v]: immediates get their lowest bit
   flipped (stays in constructor range for small variants, changes any int
   payload); regular boxed blocks are duplicated with the first immediate
   field bit-flipped (breaking any checksum over the contents); values we
   cannot safely garble (closures, custom blocks, flat float records,
   field-free blocks) fall back to an older value from the cell's history.
   Returns [None] when no corrupting value exists at all. *)
let corrupted_variant (type a) (v : a) (hist : a list) : a option =
  let from_history () = List.find_opt (fun o -> o != v) hist in
  let r = Obj.repr v in
  if Obj.is_int r then Some (Obj.obj (Obj.repr ((Obj.obj r : int) lxor 1)))
  else
    let tag = Obj.tag r in
    if
      tag < Obj.no_scan_tag && tag <> Obj.closure_tag
      && tag <> Obj.object_tag && tag <> Obj.lazy_tag
      && tag <> Obj.forward_tag && tag <> Obj.infix_tag
    then begin
      let d = Obj.dup r in
      let n = Obj.size d in
      let rec flip i =
        if i >= n then None
        else
          let f = Obj.field d i in
          if Obj.is_int f then begin
            Obj.set_field d i (Obj.repr ((Obj.obj f : int) lxor 1));
            Some (Obj.obj d : a)
          end
          else flip (i + 1)
      in
      match flip 0 with Some _ as res -> res | None -> from_history ()
    end
    else from_history ()

type fault_counters = {
  injected : int;  (** decisions that armed or applied a fault *)
  absorbed : int;  (** decisions with no possible effect (unknown cell,
                       nothing to corrupt, already stuck, empty history) *)
  fired : int;  (** armed faults consumed by an access ([Lost_write] /
                    [Stale_read]), plus every write dropped by a stuck
                    cell; equals [injected] for [Corrupt] *)
}

let zero_counters = { injected = 0; absorbed = 0; fired = 0 }

let counters : (Event.fault_kind, fault_counters) Hashtbl.t = Hashtbl.create 4

let counters_for kind =
  Option.value (Hashtbl.find_opt counters kind) ~default:zero_counters

let bump kind f = Hashtbl.replace counters kind (f (counters_for kind))

let note_injected kind = bump kind (fun c -> { c with injected = c.injected + 1 })

let note_absorbed kind = bump kind (fun c -> { c with absorbed = c.absorbed + 1 })

let note_fired kind = bump kind (fun c -> { c with fired = c.fired + 1 })

let fault_counts = counters_for

let reset_fault_counts () = Hashtbl.reset counters

(* Cell oid -> fault applier.  Registration is opt-in: the registry roots
   every registered cell, so harnesses that construct millions of
   workloads (exhaustive exploration) must not pay for fault injection
   they never use.  With tracking on, oids restart per run (and per
   workload via [Sim.reset_prerun_oids]), so [replace] keeps exactly one
   applier per live oid; an entry left over from a dead run targets a
   dead cell, whose mutation is unobservable. *)
let registry : (int, Event.fault_kind -> bool) Hashtbl.t = Hashtbl.create 256

let set_fault_tracking b =
  tracking := b;
  Hashtbl.reset registry

let fault_tracking () = !tracking

let apply_fault_to r kind =
  match (kind : Event.fault_kind) with
  | Corrupt -> (
    match corrupted_variant r.v r.hist with
    | Some v' ->
      push_hist r ~next:v';
      r.v <- v';
      note_fired kind;
      true
    | None -> false)
  | Stale_read ->
    (* Armed only when the cell has a superseded value to serve; history
       never shrinks, so the fault is guaranteed to be able to fire. *)
    if r.hist <> [] then begin
      r.stale_next <- r.stale_next + 1;
      true
    end
    else false
  | Lost_write ->
    r.lose_next <- r.lose_next + 1;
    true
  | Stuck_cell ->
    if r.stuck then false
    else begin
      r.stuck <- true;
      true
    end

let dispatch kind oid =
  if not !tracking then
    failwith
      "Mem_sim: memory-fault decision but fault tracking is off (call \
       Mem_sim.set_fault_tracking true before building the workload)";
  match Hashtbl.find_opt registry oid with
  | None ->
    note_absorbed kind;
    false
  | Some apply ->
    if apply kind then begin
      note_injected kind;
      true
    end
    else begin
      note_absorbed kind;
      false
    end

let () = Sim.set_mem_fault_dispatcher dispatch

let alloc ~plain name v =
  incr allocated;
  let r =
    {
      v;
      oid = Sim.fresh_oid ();
      name;
      born = (match Sim.current_serial () with Some s -> s | None -> -1);
      hist = [];
      lose_next = 0;
      stale_next = 0;
      stuck = false;
      plain;
    }
  in
  if !tracking then Hashtbl.replace registry r.oid (apply_fault_to r);
  r

let make ?(name = "r") ?index v =
  alloc ~plain:false (Psnap_mem.Mem_intf.label ?index name) v

let make_plain ?(name = "r") v = alloc ~plain:true name v

let oid r = r.oid

let name r = r.name

(* ---- happens-before hooks (docs/MODEL.md §12) ----

   Called when an access *executes* (after [Sim.step] resumes), with the
   accessor's identity from [Sim.current_pid].  Default cells are atomic
   registers: a read acquires, a write releases, a successful CAS or
   fetch-and-add does both; a *failed* CAS creates no edge.  Plain cells
   synchronize nothing — every read/write is checked for conflicts.  The
   hooks cost nothing unless the [Race] detector is enabled, and an access
   outside any fiber (pre-run setup) is ordered before the whole run, so
   it is not tracked. *)

let notify_race r ~(op : Event.mem_op) ~sync =
  if Race.enabled () then
    match Sim.current_pid () with
    | None -> ()
    | Some pid -> (
      match op with
      | (Event.Read | Event.Write) when r.plain ->
        Race.on_plain ~oid:r.oid ~name:r.name ~pid
          ~op:(if op = Event.Read then `Read else `Write)
      | Event.Read -> Race.on_sync ~oid:r.oid ~pid ~acquire:true ~release:false
      | Event.Write ->
        Race.on_sync ~oid:r.oid ~pid ~acquire:false ~release:true
      | Event.Cas | Event.Faa ->
        if sync then Race.on_sync ~oid:r.oid ~pid ~acquire:true ~release:true)

let read r =
  guard r "read";
  Sim.step { oid = r.oid; obj_name = r.name; op = Event.Read };
  notify_race r ~op:Event.Read ~sync:true;
  if r.stale_next > 0 then begin
    r.stale_next <- r.stale_next - 1;
    match r.hist with
    | old :: _ ->
      note_fired Event.Stale_read;
      old
    | [] -> r.v (* unreachable: armed only with non-empty history *)
  end
  else r.v

let write r v =
  guard r "write";
  Sim.step { oid = r.oid; obj_name = r.name; op = Event.Write };
  notify_race r ~op:Event.Write ~sync:true;
  if r.stuck then note_fired Event.Stuck_cell
  else if r.lose_next > 0 then begin
    r.lose_next <- r.lose_next - 1;
    note_fired Event.Lost_write
  end
  else begin
    push_hist r ~next:v;
    r.v <- v
  end

(* Weak-CAS mode: seeded spurious failure, as on LL/SC machines (and the
   memory model of "weak compare-and-swap" in the C++/LLVM sense).  A
   spurious failure returns false while leaving the cell untouched even
   though it held the expected value — code that treats a failed CAS as
   proof of a conflicting write is wrong on such machines.  Off by
   default; tests switch it on to exercise the [@psnap.helping] retry
   loops dynamically. *)

let weak : (Random.State.t * float) option ref = ref None

let weak_spurious = ref 0

let set_weak_cas ?(seed = 0) ~rate () =
  if not (rate >= 0.0 && rate <= 1.0) then
    invalid_arg "Mem_sim.set_weak_cas: rate must be in [0, 1]";
  weak := Some (Random.State.make [| seed; 0xCA5 |], rate);
  weak_spurious := 0

let clear_weak_cas () = weak := None

let weak_cas_spurious () = !weak_spurious

let cas r ~expected ~desired =
  guard r "cas";
  Sim.step { oid = r.oid; obj_name = r.name; op = Event.Cas };
  let spurious =
    match !weak with
    | Some (st, rate) when Random.State.float st 1.0 < rate ->
      incr weak_spurious;
      true
    | _ -> false
  in
  let ok =
    if (not spurious) && r.v == expected then
      if r.stuck then begin
        (* A stuck cell never changes, so refusal is indistinguishable from
           a lost race — the honest failure mode for CAS. *)
        note_fired Event.Stuck_cell;
        false
      end
      else if r.lose_next > 0 then begin
        (* Acknowledged-but-lost: reports success without installing — the
           nastiest form of a lost write. *)
        r.lose_next <- r.lose_next - 1;
        note_fired Event.Lost_write;
        true
      end
      else begin
        push_hist r ~next:desired;
        r.v <- desired;
        true
      end
    else false
  in
  (* The happens-before edge follows the *reported* outcome: code that saw
     success behaves as if it synchronized. *)
  notify_race r ~op:Event.Cas ~sync:ok;
  ok

let fetch_and_add r k =
  guard r "fetch_and_add";
  Sim.step { oid = r.oid; obj_name = r.name; op = Event.Faa };
  notify_race r ~op:Event.Faa ~sync:true;
  let old = r.v in
  if r.stuck then note_fired Event.Stuck_cell
  else if r.lose_next > 0 then begin
    r.lose_next <- r.lose_next - 1;
    note_fired Event.Lost_write
  end
  else begin
    push_hist r ~next:(old + k);
    r.v <- old + k
  end;
  old
