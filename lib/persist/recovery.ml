(* Rebuilding snapshot state from a WAL (docs/MODEL.md §13).

   The recovered state is: the last fully-sealed checkpoint (the last
   [Checkpoint_end] whose generation also has a [Checkpoint_begin] and a
   [Scan_seal] earlier in the log), plus every update record after it
   replayed in log order.  Because lsns are drawn and records appended
   under the commit lock, log order is apply order; the lsn-monotone
   filter makes replay idempotent under the duplicate appends that owner
   recovery may produce (an intent completed twice appends the same lsn
   twice — adjacent, applied once).

   Recovery is one forward fold over the log's frames ([Wal.fold]), with
   no record list: each update is applied under the lsn filter as it is
   decoded, and each complete triple resets the base to its sealed view,
   discarding what was applied before it.  The triple that is last when
   the fold ends is therefore the one recovered from.  Damage repair
   happens in the same pass ([Wal.Make.fold ~repair]). *)

type 'a state = {
  values : 'a array;  (** recovered component values *)
  next_lsn : int;  (** the lsn the next commit must draw *)
  replayed : int;  (** update records applied on top of the checkpoint *)
  checkpoint_gen : int;  (** generation recovered from; 0 = none *)
}

(* The fold's accumulator.  [begins] and [seals] hold each generation's
   last begin and seal so far: a generation number reused after a
   truncation pairs with its latest records. *)
type 'a replay = {
  begins : (int, int) Hashtbl.t;  (** gen -> next_lsn *)
  seals : (int, string) Hashtbl.t;  (** gen -> sealed view *)
  mutable values : 'a array;
  mutable applied_lsn : int;  (** the lsn filter: last lsn applied *)
  mutable replayed : int;
  mutable gen : int;
  mutable horizon : int;  (** the largest lsn the log mentions *)
}

let start ~init =
  {
    begins = Hashtbl.create 4;
    seals = Hashtbl.create 4;
    values = Array.copy init;
    applied_lsn = 0;
    replayed = 0;
    gen = 0;
    horizon = 0;
  }

let step acc (r : Wal.record) =
  (match r with
  | Update { lsn; index; payload; _ } ->
    (* A crashed-but-logged commit filtered here still bumps the horizon,
       so re-drawn lsns never collide. *)
    acc.horizon <- max acc.horizon lsn;
    if lsn > acc.applied_lsn then begin
      acc.values.(index) <- Marshal.from_string payload 0;
      acc.applied_lsn <- lsn;
      acc.replayed <- acc.replayed + 1
    end
  | Checkpoint_begin { gen; next_lsn } ->
    Hashtbl.replace acc.begins gen next_lsn;
    acc.horizon <- max acc.horizon (next_lsn - 1)
  | Scan_seal { gen; payload } -> Hashtbl.replace acc.seals gen payload
  | Checkpoint_end { gen } -> (
    match (Hashtbl.find_opt acc.begins gen, Hashtbl.find_opt acc.seals gen) with
    | Some next_lsn, Some payload ->
      acc.values <- Marshal.from_string payload 0;
      acc.applied_lsn <- next_lsn - 1;
      acc.replayed <- 0;
      acc.gen <- gen
    | _ -> ()));
  acc

let finish acc =
  {
    values = acc.values;
    next_lsn = max acc.applied_lsn acc.horizon + 1;
    replayed = acc.replayed;
    checkpoint_gen = acc.gen;
  }

let replay ~init records = finish (List.fold_left step (start ~init) records)

(* Device-level recovery: read, repair the tail and replay in one fold,
   then account. *)
module Metrics = Psnap_sched.Metrics

module Make (St : Storage.S) = struct
  module W = Wal.Make (St)

  let load ?(repair = true) dev ~init =
    let d = W.fold ~repair dev step (start ~init) in
    let st = finish d.Wal.acc in
    Metrics.incr Metrics.Durable.recoveries;
    Metrics.add Metrics.Durable.replayed_updates st.replayed;
    (st, d.Wal.damage)
end
