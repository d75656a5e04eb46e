(** The new active set algorithm of the paper (Figure 2, Section 4.1),
    from an unbounded array of single-use slots, a fetch&increment object
    handing them out, and a compare&swap object holding a sorted, coalesced
    list of intervals of slot indices known to be permanently vacated.

    [join] is two steps; [leave] is one; [get_set] costs amortized O(C)
    (Theorem 2).  See DESIGN.md §2 for the two documented deviations from
    the pseudocode: never-written slots are told apart from vacated ones,
    and a getSet that found no newly vacated slot skips its CAS of [C],
    which could change nothing. *)

module Make (M : Psnap_mem.Mem_intf.S) : Activeset_intf.S
