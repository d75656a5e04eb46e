(** Base shared objects of the paper's model (Section 2): linearizable
    registers, compare&swap objects and fetch&increment objects.

    Every algorithm in this repository is a functor over {!S}, so the same
    code runs against two backends:

    - {!Mem_atomic}: OCaml 5 [Atomic.t] — real shared memory, for wall-clock
      benchmarks and multi-domain examples;
    - [Psnap_sched.Mem_sim]: the step-counting simulator — every call is one
      scheduling point and one counted {e step}, which is the cost unit of
      Theorems 1–3.

    Compare&swap compares with {e physical} equality, like
    [Atomic.compare_and_set].  All cell contents stored by the algorithms are
    immutable values, and a CAS is always performed against the exact value
    previously read, so physical equality is the faithful model of a
    hardware pointer CAS (and avoids the ABA problem exactly the way the
    paper's tagged values do). *)

module type S = sig
  (** A linearizable shared cell.  Plain registers use {!read}/{!write};
      compare&swap objects use {!read}/{!cas}; fetch&increment objects use
      {!fetch_and_add}/{!read}. *)
  type 'a ref_

  (** [make ?name ?index v] allocates a fresh cell.  Allocation is not a
      shared memory access and costs no step.  [name] labels the cell in
      simulator traces; with [index] the label is [name[index]]
      ({!label}: ["R"] and [3] give ["R[3]"]).  Only backends that keep
      labels render it, so real memory formats nothing for the cells of
      an indexed array. *)
  val make : ?name:string -> ?index:int -> 'a -> 'a ref_

  val read : 'a ref_ -> 'a

  val write : 'a ref_ -> 'a -> unit

  (** [cas r ~expected ~desired] atomically: if the current contents is
      physically equal to [expected], stores [desired] and returns [true];
      otherwise returns [false]. *)
  val cas : 'a ref_ -> expected:'a -> desired:'a -> bool

  (** [fetch_and_add r k] atomically adds [k] and returns the {e previous}
      value. *)
  val fetch_and_add : int ref_ -> int -> int
end

(** The label of a cell made with [~name] and [?index]: [name], or
    [name[index]]. *)
let label ?index name =
  match index with None -> name | Some i -> name ^ "[" ^ string_of_int i ^ "]"
