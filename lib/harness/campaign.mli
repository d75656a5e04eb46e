(** The one campaign loop behind [simulate.exe]: seeded executions of a
    {!Scenario} under a composed scheduler, or a lenient replay of a saved
    schedule; ddmin shrinking of the first failing schedule to a witness
    file; the console report and JSON summary; the verdict and exit
    code.

    Scheduler composition, innermost first: the base policy, [nemesis],
    the memory-fault storm, the scenario's own nemeses, power loss, and
    the halting crash of pid 0.  A harness exception in any execution
    counts as one violation and the campaign carries on. *)

open Psnap

type mem_faults = { kinds : Event.fault_kind list; rate : float; max : int }

type config = {
  sched : string;  (** one of {!scheds} *)
  nemesis : string;  (** one of {!nemeses} *)
  mem_faults : mem_faults option;
  crash_at : int option;  (** halt pid 0 at this clock *)
  power : Scenario.power;
  seed_base : int;  (** execution [k] uses seed [seed_base + k] *)
  seeds : int;
  expect_violations : bool;  (** pass only if the oracle reports a violation *)
  shrink : bool;  (** minimize the first failing schedule *)
  replay_file : string option;
      (** without [shrink]: replay this schedule instead of the seeds; with
          [shrink]: save the minimal schedule here *)
  json_file : string option;
}

val default : config
(** [random] scheduler, no faults, seeds [0..9], no files. *)

val scheds : string list

val nemeses : string list

val replay_sched : Scheduler.decision list -> Scheduler.t
(** Lenient replay: decisions that no longer apply are skipped, and
    round-robin finishes the run once they are exhausted. *)

type 'v execution = {
  result : Sim.result;
  violations : 'v list;
  samples : Metrics.sample list;
}

val execute :
  ?record_trace:bool -> 'v Scenario.t -> sched:Scheduler.t -> 'v execution
(** One execution in a fresh world. *)

val run : config -> 'v Scenario.t -> int
(** The whole campaign; returns the exit code (0 pass, 1 fail).
    @raise Scenario.Usage on an invalid configuration. *)
