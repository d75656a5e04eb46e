(* Rebuilding snapshot state from a WAL (docs/MODEL.md §13).

   The recovered state is: the last fully-sealed checkpoint (the last
   [Checkpoint_end] whose generation also has a [Checkpoint_begin] and a
   [Scan_seal] earlier in the log), plus every update record after it
   replayed in log order.  Because lsns are drawn and records appended
   under the commit lock, log order is apply order; the lsn-monotone
   filter makes replay idempotent under the duplicate appends that owner
   recovery may produce (an intent completed twice appends the same lsn
   twice — adjacent, applied once).

   Replay is pure: damage repair happens in [Wal.Make.read_all ~repair]
   before the record list reaches [replay]. *)

type 'a state = {
  values : 'a array;  (** recovered component values *)
  next_lsn : int;  (** the lsn the next commit must draw *)
  replayed : int;  (** update records applied on top of the checkpoint *)
  checkpoint_gen : int;  (** generation recovered from; 0 = none *)
}

let replay ~init records =
  let recs = Array.of_list records in
  let n = Array.length recs in
  (* The last complete begin/seal/end triple: walk once recording where
     each generation's begin and seal appeared, then keep the last end
     whose generation has both, earlier. *)
  let begins = Hashtbl.create 4 and seals = Hashtbl.create 4 in
  let chosen = ref None in
  Array.iteri
    (fun at r ->
      match r with
      | Wal.Checkpoint_begin { gen; next_lsn } ->
        Hashtbl.replace begins gen (at, next_lsn)
      | Wal.Scan_seal { gen; payload } -> Hashtbl.replace seals gen (at, payload)
      | Wal.Checkpoint_end { gen } -> (
        match (Hashtbl.find_opt begins gen, Hashtbl.find_opt seals gen) with
        | Some (b, next_lsn), Some (s, payload) when b < at && s < at ->
          chosen := Some (at, gen, next_lsn, payload)
        | _ -> ())
      | Wal.Update _ -> ())
    recs;
  let base, start, last_lsn0, gen =
    match !chosen with
    | Some (at, gen, next_lsn, payload) ->
      ((Marshal.from_string payload 0 : _ array), at + 1, next_lsn - 1, gen)
    | None -> (Array.copy init, 0, 0, 0)
  in
  let values = Array.copy base in
  let last_lsn = ref last_lsn0 in
  let replayed = ref 0 in
  for at = start to n - 1 do
    match recs.(at) with
    | Wal.Update { lsn; index; payload; _ } when lsn > !last_lsn ->
      values.(index) <- Marshal.from_string payload 0;
      last_lsn := lsn;
      incr replayed
    | _ -> ()
  done;
  (* A crashed-but-logged commit beyond the checkpoint window still bumps
     the lsn horizon even if it was filtered above; the horizon is the max
     over everything the log mentions, so re-drawn lsns never collide. *)
  Array.iter
    (fun r ->
      match r with
      | Wal.Update { lsn; _ } -> if lsn > !last_lsn then last_lsn := lsn
      | Wal.Checkpoint_begin { next_lsn; _ } ->
        if next_lsn - 1 > !last_lsn then last_lsn := next_lsn - 1
      | _ -> ())
    recs;
  {
    values;
    next_lsn = !last_lsn + 1;
    replayed = !replayed;
    checkpoint_gen = gen;
  }

(* Device-level recovery: read, repair the tail, replay, account. *)
module Metrics = Psnap_sched.Metrics

module Make (St : Storage.S) = struct
  module W = Wal.Make (St)

  let load ?(repair = true) dev ~init =
    let d = W.read_all ~repair dev in
    let st = replay ~init d.Wal.records in
    Metrics.incr Metrics.Durable.recoveries;
    Metrics.add Metrics.Durable.replayed_updates st.replayed;
    (st, d.Wal.damage)
end
