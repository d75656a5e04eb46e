(* Real shared memory: OCaml 5 atomics.  Every operation maps to a single
   linearizable primitive of the runtime. *)

type 'a ref_ = 'a Atomic.t

let make ?name:_ ?index:_ v = Atomic.make v

let read = Atomic.get
let write = Atomic.set
let cas r ~expected ~desired = Atomic.compare_and_set r expected desired
let fetch_and_add = Atomic.fetch_and_add
