(** Real shared memory: OCaml 5 atomics.

    Every operation of {!Mem_intf.S} maps to a single linearizable
    primitive of the multicore runtime, so the algorithms' step counts
    translate one-to-one.  The type equality ['a ref_ = 'a Atomic.t] is
    exposed so multicore client code (the runtime serving layer, the
    loadgen) can interoperate with plain [Atomic] values.

    [cas] compares with physical equality ([==]), matching the
    simulator backend; [~name] and [~index] labels are accepted for
    interface compatibility and ignored, so nothing is formatted. *)

type 'a ref_ = 'a Atomic.t

val make : ?name:string -> ?index:int -> 'a -> 'a ref_

val read : 'a ref_ -> 'a

val write : 'a ref_ -> 'a -> unit

val cas : 'a ref_ -> expected:'a -> desired:'a -> bool

val fetch_and_add : int ref_ -> int -> int
(** Returns the previous value. *)
