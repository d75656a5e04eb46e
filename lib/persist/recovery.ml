(* Rebuilding snapshot state from a WAL (docs/MODEL.md §13).

   The recovered state is: the last fully-sealed checkpoint (the last
   [Checkpoint_end] whose generation also has a [Checkpoint_begin] and a
   [Scan_seal] earlier in the log), plus every update record after it
   replayed in log order.  Commits of one component draw their lsns and
   append their records under that component's stripe of the commit
   lock, so a component's log order is its apply order, and its lsns
   rise along the log; different stripes draw lsns independently, so
   lsns need not rise across the log.  The filter is therefore per
   component: an update is kept iff its lsn is above the last complete
   triple's floor (its [next_lsn - 1]) and above the last lsn kept for
   its component since that triple.  Every commit after a triple draws
   an lsn above its floor, because the checkpoint releases every stripe
   at its [next_lsn].  The fold keeps one lsn per component: a complete
   triple sets each to its floor, and a kept update raises its own.  The filter makes replay idempotent under the
   duplicate appends that owner recovery may produce (an intent
   completed twice appends the same lsn twice, applied once).  The two
   copies need not be adjacent: other stripes' commits can sit between
   them, and so can a dead incarnation's checkpoint triple, torn or
   complete (a complete one's floor covers the first copy's lsn).  On a
   log whose lsns rise across the log, as a single commit lock writes
   them, this is the global lsn-monotone filter.

   Recovery is one forward fold over the log's frames ([Wal.fold]), in
   place on the device's bytes and with no record list, and it
   unmarshals only what it recovers.  The fold applies the lsn filter to
   each update as it passes, but keeps only the update's frame offset; a
   complete triple clears the kept offsets and makes its seal the base.
   When the fold ends, the base is the last complete triple's seal, and
   [finish] unmarshals it once, then the kept updates in log order.
   Payloads that a later triple supersedes are checked but never
   unmarshalled.  Damage repair happens in the same pass
   ([Wal.Make.fold ~repair]).

   [Wal.fold] hands over only frames whose payloads passed the checksum
   and hold exactly one marshalled value, so [finish] may unmarshal
   them. *)

type 'a state = {
  values : 'a array;  (** recovered component values *)
  next_lsn : int;  (** the lsn the next commit must draw *)
  replayed : int;  (** update records applied on top of the checkpoint *)
  checkpoint_gen : int;  (** generation recovered from; 0 = none *)
}

(* The fold's accumulator.  [begins] and [seals] hold each generation's
   last begin and seal so far: a generation number reused after a
   truncation pairs with its latest records.  Offsets are into the log
   the fold runs over. *)
type 'a replay = {
  init : 'a array;
  begins : (int, int) Hashtbl.t;  (** gen -> next_lsn *)
  seals : (int, int) Hashtbl.t;  (** gen -> its seal's payload offset *)
  mutable base : int;  (** payload offset of the recovered seal; -1 = [init] *)
  mutable kept : int array;  (** frame offsets of the updates applied
                                 since the base, in log order *)
  mutable replayed : int;  (** the kept offsets in use *)
  applied : int array;  (** the lsn filter: per component, the last lsn
                            kept since the base, or the base's floor *)
  mutable gen : int;
  mutable horizon : int;  (** the largest lsn the log mentions *)
}

let start ~init =
  {
    init;
    begins = Hashtbl.create 4;
    seals = Hashtbl.create 4;
    base = -1;
    kept = Array.make 64 0;
    replayed = 0;
    applied = Array.make (Array.length init) 0;
    gen = 0;
    horizon = 0;
  }

let keep acc at =
  if acc.replayed = Array.length acc.kept then begin
    let grown = Array.make (2 * acc.replayed) 0 in
    Array.blit acc.kept 0 grown 0 acc.replayed;
    acc.kept <- grown
  end;
  acc.kept.(acc.replayed) <- at;
  acc.replayed <- acc.replayed + 1

let step acc log at _len =
  (match Wal.Frame.kind log at with
  | 'U' ->
    (* A crashed-but-logged commit filtered here still bumps the horizon,
       so re-drawn lsns never collide. *)
    let lsn = Wal.Frame.lsn log at and index = Wal.Frame.index log at in
    if lsn > acc.horizon then acc.horizon <- lsn;
    if lsn > acc.applied.(index) then begin
      keep acc at;
      acc.applied.(index) <- lsn
    end
  | 'B' ->
    let next_lsn = Wal.Frame.next_lsn log at in
    Hashtbl.replace acc.begins (Wal.Frame.gen log at) next_lsn;
    if next_lsn - 1 > acc.horizon then acc.horizon <- next_lsn - 1
  | 'S' ->
    Hashtbl.replace acc.seals (Wal.Frame.gen log at) (Wal.Frame.payload log at)
  | _ (* 'E' *) -> (
    let gen = Wal.Frame.gen log at in
    match (Hashtbl.find_opt acc.begins gen, Hashtbl.find_opt acc.seals gen) with
    | Some next_lsn, Some seal ->
      acc.base <- seal;
      Array.fill acc.applied 0 (Array.length acc.applied) (next_lsn - 1);
      acc.replayed <- 0;
      acc.gen <- gen
    | _ -> ()));
  acc

(* The deferred unmarshalling: the base, then the kept updates. *)
let finish acc log =
  let values =
    if acc.base < 0 then Array.copy acc.init
    else Marshal.from_string log acc.base
  in
  for k = 0 to acc.replayed - 1 do
    let at = acc.kept.(k) in
    values.(Wal.Frame.index log at) <-
      Marshal.from_string log (Wal.Frame.payload log at)
  done;
  {
    values;
    next_lsn = acc.horizon + 1;
    replayed = acc.replayed;
    checkpoint_gen = acc.gen;
  }

(* A record list is a log once encoded: the same fold runs over it. *)
let replay ~init records =
  let log = String.concat "" (List.map Wal.encode records) in
  finish (Wal.fold step (start ~init) log (String.length log)).Wal.acc log

(* Device-level recovery: read, repair the tail and replay in one fold,
   then account. *)
module Metrics = Psnap_sched.Metrics

module Make (St : Storage.S) = struct
  module W = Wal.Make (St)

  let load ?(repair = true) dev ~init =
    let d = W.fold ~repair dev step (start ~init) ~finish in
    let st = d.Wal.acc in
    Metrics.incr Metrics.Durable.recoveries;
    Metrics.add Metrics.Durable.replayed_updates st.replayed;
    (st, d.Wal.damage)
end
