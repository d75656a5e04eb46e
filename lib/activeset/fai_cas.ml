(** The new active set algorithm of the paper (Figure 2, Section 4.1).

    - [I\[0..\]] is an unbounded array of registers; each slot is used by at
      most one [join]/[leave] pair and never recycled.
    - [H] is a fetch&increment object handing out fresh slots.
    - [C] is a compare&swap object holding a sorted, coalesced list of
      intervals of slot indices known to be permanently vacated.

    [join] is two steps (fetch&increment + write); [leave] is one step.
    [get_set] reads [C] and [H], then every slot of [I] not covered by a
    skip interval, and finally, if it found a newly vacated slot, tries
    once to CAS its improved interval list into [C].  Theorem 2: amortized
    O(1) per join, O(Ċ) per leave, O(C) per getSet.

    Deviation from the paper's pseudocode, documented in DESIGN.md §2: the
    pseudocode initializes slots to the same value 0 that [leave] writes.  A
    getSet reading a slot between its fetch&increment and the join's write
    of the id would then mark a {e live} slot as permanently vacated in [C],
    hiding that process from every later getSet.  We distinguish [Empty]
    (never written — joiner mid-flight, skip but do not record) from
    [Vacated] (written by leave — may enter [C]).  The amortized analysis is
    unaffected: an [Empty] slot's owner is mid-[join], so it is counted in
    the contention C(G) of every getSet G that reads the slot.

    Second deviation, a no-op: the pseudocode's getSet always CASes [C].
    When it found no newly vacated slot its list is the one it read, and a
    CAS of [C] from that list to itself changes nothing whether it
    succeeds or fails, so that CAS is skipped: an idle getSet is two
    steps plus its slot reads. *)

module Interval_set = Psnap_interval.Interval_set

module Make (M : Psnap_mem.Mem_intf.S) = struct
  module Slots = Psnap_mem.Infinite_array.Make (M)

  type entry = Empty | Occupied of int | Vacated

  type t = {
    slots : entry Slots.t;  (** I *)
    next : int M.ref_;  (** H: number of slots handed out *)
    skips : Interval_set.t M.ref_;  (** C *)
  }

  type handle = {
    t : t;
    pid : int;
    mutable slot : int;
        [@psnap.local_state
          "single-owner handle field remembering the slot handed out by H; \
           never read by another process"]
  }
  (** [slot = -1] iff the process is not active (join/leave alternation). *)

  let name = "fai-cas"

  let create ~n:_ () =
    {
      slots = Slots.create ~name:"I" Empty;
      next = M.make ~name:"H" 0;
      skips = M.make ~name:"C" Interval_set.empty;
    }

  let handle t ~pid = { t; pid; slot = -1 }

  let join h =
    assert (h.slot < 0);
    let l = M.fetch_and_add h.t.next 1 in
    Slots.write h.t.slots l (Occupied h.pid);
    h.slot <- l

  let leave h =
    assert (h.slot >= 0);
    Slots.write h.t.slots h.slot Vacated;
    h.slot <- -1

  let get_set t =
    let old_skips = M.read t.skips in
    let h = M.read t.next in
    let[@psnap.local_state
         "accumulator for the result list, private to this getSet"] members =
      ref []
    in
    let[@psnap.local_state
         "candidate interval list built privately, published only via the \
          final CAS"] new_skips =
      ref old_skips
    in
    if h > 0 then
      Interval_set.fold_gaps ~lo:0 ~hi:(h - 1)
        (fun () j ->
          match Slots.read t.slots j with
          | Vacated -> new_skips := Interval_set.add j !new_skips
          | Occupied pid -> members := pid :: !members
          | Empty -> () (* joiner between its F&I and its write: in-flight *))
        () old_skips;
    (* One attempt, as in the pseudocode, and only with something to add;
       on failure someone else published an interval list at least as
       fresh as [old_skips]. *)
    if !new_skips != old_skips then
      ignore (M.cas t.skips ~expected:old_skips ~desired:!new_skips);
    List.sort_uniq compare !members
end
