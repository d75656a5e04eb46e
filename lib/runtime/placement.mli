(** Component placement for the sharded serving layers ({!Sharded},
    {!Resilient}): which shard holds component [i] of an [m]-component
    vector, and at which slot of that shard.

    [`Round_robin] stripes component [i] to shard [i mod nshards] (spreads
    hot low-numbered keys); [`Range] assigns contiguous blocks of
    [m / nshards] components, the first [m mod nshards] shards one more
    (preserves the locality of range scans: a narrow range scan touches
    one shard). *)

type t

val make : [ `Round_robin | `Range ] -> shards:int -> m:int -> t
(** The placement of [m ≥ 1] components over [min shards m] shards
    ([shards ≥ 1]), so no shard is empty; raises [Invalid_argument]
    otherwise. *)

val nshards : t -> int
(** The effective shard count, [min shards m]. *)

val locate : t -> int -> int * int
(** [locate p i] is component [i]'s [(shard, slot)], for [0 ≤ i < m];
    raises [Invalid_argument] for any other [i]. *)

val size : t -> int -> int
(** [size p s] is the number of components shard [s] holds. *)

val global : t -> int -> int -> int
(** [global p s j] is the component at slot [j] of shard [s]: the
    inverse of [locate]. *)

val split : t -> 'a array -> 'a array array
(** [split p init] is, for each shard, the values of [init] at its slots. *)
