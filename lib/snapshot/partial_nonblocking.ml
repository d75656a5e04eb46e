(** The "simple variant of the original non-blocking snapshot algorithm"
    that Section 3 of the paper starts from: updates write tagged values,
    and a partial scan repeats collects until two consecutive ones are
    identical — condition (1) only, {e no helping}.

    The implementation is linearizable and non-blocking (some operation
    always completes: a scan only retries because an update finished), but
    {b not wait-free}: "a slow scanner can keep seeing different collects
    if fast updates are concurrently being performed."  The test suite
    demonstrates exactly that divergence under a starvation schedule, which
    is the paper's motivation for the embedded-scan helping mechanism of
    Figures 1 and 3.

    [scan] takes [max_collects] ([max_int] by default) after which it
    raises {!Starved} — a non-blocking implementation must be allowed to
    not terminate, but tests and benchmarks need to observe that finitely. *)

exception Starved

module Make (M : Psnap_mem.Mem_intf.S) = struct
  type 'a cell = { v : 'a; tag : Tag.t }

  type 'a t = { regs : 'a cell M.ref_ array }

  type 'a handle = {
    t : 'a t;
    pid : int;
    mutable seq : int;
        [@psnap.local_state
          "per-process write sequence number; single-writer, only ever \
           published inside the tag written to this process's register"]
    mutable last_collects : int;
        [@psnap.local_state
          "diagnostics: records how many collects the last scan took; read \
           back only by the owning process"]
    mutable max_collects : int;
        [@psnap.local_state
          "per-process starvation cutoff for the non-termination tests; \
           never read by another process"]
  }

  let name = "nonblocking"

  let create ~n:_ init =
    {
      regs =
        Array.mapi
          (fun i v -> M.make ~name:"R" ~index:i { v; tag = Tag.Init })
          init;
    }

  let handle t ~pid =
    { t; pid; seq = 0; last_collects = 0; max_collects = max_int }

  (** Give up (raise {!Starved}) after this many collects — observation
      hook for the non-termination tests. *)
  let set_max_collects h k = h.max_collects <- k

  let update h i v =
    M.write h.t.regs.(i) { v; tag = Tag.W { pid = h.pid; seq = h.seq } };
    h.seq <- h.seq + 1

  let same c1 c2 =
    let n = Array.length c1 in
    let rec go k = k >= n || (Tag.equal c1.(k).tag c2.(k).tag && go (k + 1)) in
    go 0

  let scan h idxs =
    let sorted = Array.of_list (List.sort_uniq compare (Array.to_list idxs)) in
    let collect () = Array.map (fun i -> M.read h.t.regs.(i)) sorted in
    let[@psnap.bounded
         "deliberately only non-blocking — the Section 3 baseline without \
          helping; gives up with Starved after max_collects collects"] rec go
        prev n =
      if n > h.max_collects then raise Starved;
      let cur = collect () in
      if same prev cur then begin
        h.last_collects <- n;
        let find i =
          let[@psnap.bounded
               "linear walk over the already-read collect; at most r \
                iterations, no shared accesses"] rec search k =
            if sorted.(k) = i then cur.(k).v else search (k + 1)
          in
          search 0
        in
        Array.map find idxs
      end
      else go cur (n + 1)
    in
    if Array.length sorted = 0 then [||] else go (collect ()) 2

  let read h i = (M.read h.t.regs.(i)).v

  let last_scan_collects h = h.last_collects
end
