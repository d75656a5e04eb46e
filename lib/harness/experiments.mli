(** The experiment suite of EXPERIMENTS.md: one runner per table.

    The paper proves step-complexity bounds instead of reporting
    measurements, so each experiment validates a theorem's bound and shape
    on the step-counting simulator — measured worst/mean steps per
    operation against the bound with explicit constants, under seeded
    random and adversarial schedules.  All runners are deterministic given
    [seeds] (the number of seeded executions per configuration). *)

type runner = ?seeds:int -> unit -> Table.t

val e1 : runner
(** Figure 1 vs Theorem 1 bounds. *)

val e2 : runner
(** Figure 2 active set vs Theorem 2. *)

val e3a : runner
(** Figure 3 scans: O(r²), 2r+1 collects. *)

val e3b : runner
(** Figure 3 locality: cost independent of m. *)

val e3c : runner
(** Figure 3 contention-independence; amortized updates. *)

val e4 : runner
(** Partial-scan cost vs m across implementations. *)

val e5 : runner
(** Crossover when r approaches m. *)

val e6 : runner
(** Collects under the one-update-per-collect adversary. *)

val e7 : runner
(** Active set getSet adaptivity after churn. *)

val e9 : runner
(** f-array trade-off (related work). *)

val e10 : runner
(** Small-registers ablation. *)

val e11 : runner
(** Active set ablation inside Figure 3. *)

val e12 : runner
(** Restricted single-writer/single-scanner model. *)

val e13 : runner
(** Space: allocations during churn (the paper's open problem). *)

val e16s : runner
(** Sharded single-shard window scans: steps per operation, worst
    collects against [2r + 3], and the sub-scan fallback rate. *)

val all : ?seeds:int -> unit -> Table.t list

val by_name : (string * runner) list
