(** The shared-memory backend that turns every access into one simulator
    step ([Psnap_mem.Mem_intf.S] over the {!Sim} kernel).

    Must be used from code running inside {!Sim.run}: each
    read/write/CAS/F&A performs the {!Sim.Step} effect — the suspension
    happens {e before} the access, and the access itself executes
    atomically when the scheduler resumes the fiber.

    Beyond the plain [Mem_intf.S] surface this module owns the dynamic
    memory-discipline machinery: the strict-mode escape sanitizer, the
    memory-fault injection registry ({!Scheduler.Mem_fault} decisions are
    dispatched here), weak-CAS mode, and plain (unsynchronized) cells for
    the happens-before race checker. *)

type 'a ref_

(** Cells allocated since the last {!reset_allocations} — the space measure
    of the paper's concluding remarks.  Allocation costs no step. *)
val allocations : unit -> int

val reset_allocations : unit -> unit

(** [make ?name ?index v] allocates a fresh atomic cell; its label
    ([name], or [name[index]]: {!Psnap_mem.Mem_intf.label}) names it in
    traces and is the target key of name-based nemeses. *)
val make : ?name:string -> ?index:int -> 'a -> 'a ref_

(** [make_plain ?name v] allocates an {e unsynchronized} cell (a raw [ref]
    or mutable field shared across domains): reads and writes create no
    happens-before edges and are checked for conflicts by {!Race}. *)
val make_plain : ?name:string -> 'a -> 'a ref_

(** The cell's object id — the target key of {!Scheduler.Mem_fault}
    decisions and the id under which its steps appear in traces. *)
val oid : 'a ref_ -> int

(** The label passed to [make ~name]. *)
val name : 'a ref_ -> string

val read : 'a ref_ -> 'a

val write : 'a ref_ -> 'a -> unit

(** [cas r ~expected ~desired] — compare with {e physical} equality, like
    [Atomic.compare_and_set]. *)
val cas : 'a ref_ -> expected:'a -> desired:'a -> bool

(** [fetch_and_add r k] adds [k] and returns the previous value. *)
val fetch_and_add : int ref_ -> int -> int

(** {2 Strict mode: the escape sanitizer}

    The dynamic face of the no-escape discipline (docs/MODEL.md §7): with
    strict mode on, every access must happen at a scheduling point of the
    {e current} run.  An access outside any run, or to a cell born in an
    earlier run, raises {!Escape}.  Cells allocated outside any run are
    legitimate in every run. *)

exception Escape of string

val set_strict : bool -> unit

val strict_mode : unit -> bool

(** [(checked, escaped)] since the last {!reset_sanitizer}. *)
val sanitizer_counts : unit -> int * int

val reset_sanitizer : unit -> unit

(** {2 Memory-fault injection} (docs/MODEL.md §9)

    Fault decisions arrive from the scheduler through {!Sim}'s dispatcher;
    the typed cells live here, so this module owns both the application of
    a fault to a cell and the per-kind accounting.  [Corrupt] and
    [Stuck_cell] take effect at decision time; [Lost_write] and
    [Stale_read] are {e armed} at decision time and {e fire} at the cell's
    next matching access.  Every effect is a deterministic function of the
    cell's state, so a recorded fault schedule replays (and ddmin-shrinks)
    exactly. *)

type fault_counters = {
  injected : int;  (** decisions that armed or applied a fault *)
  absorbed : int;  (** decisions with no possible effect (unknown cell,
                       nothing to corrupt, already stuck, empty history) *)
  fired : int;  (** armed faults consumed by an access ([Lost_write] /
                    [Stale_read]), plus every write dropped by a stuck
                    cell; equals [injected] for [Corrupt] *)
}

val fault_counts : Event.fault_kind -> fault_counters

val reset_fault_counts : unit -> unit

(** Fault tracking is opt-in (the cell registry roots every registered
    cell, and history capture costs on the write path): call
    [set_fault_tracking true] {e before} building the workload.  Toggling
    clears the registry. *)
val set_fault_tracking : bool -> unit

val fault_tracking : unit -> bool

(** {2 Weak-CAS mode}

    Seeded spurious CAS failure, as on LL/SC machines: a spurious failure
    returns [false] while leaving the cell untouched even though it held
    the expected value.  Off by default; tests switch it on to exercise
    the retry loops dynamically. *)

val set_weak_cas : ?seed:int -> rate:float -> unit -> unit
(** @raise Invalid_argument unless [rate] is in [\[0, 1\]]. *)

val clear_weak_cas : unit -> unit

(** Spurious failures delivered since {!set_weak_cas}. *)
val weak_cas_spurious : unit -> int
