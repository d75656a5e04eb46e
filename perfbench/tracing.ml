(* Spans and exact counters for the traced run.

   The client is a single domain, so every piece of state here is plain
   mutable data owned by it.  Spans nest strictly: a span's self time is
   its duration minus the durations of its direct children, computed
   online when it closes.  Raw spans of the first [export_ops] operations
   are also kept in memory and written out when the run ends. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Span names.  [Append] and [Sync] are the storage shim's spans; they
   belong to the persist layer. *)
type name = Bench | Persist | Append | Sync | Runtime | Snapshot | Activeset | Net

let names = [| Bench; Persist; Append; Sync; Runtime; Snapshot; Activeset; Net |]

let nnames = Array.length names

let index = function
  | Bench -> 0 | Persist -> 1 | Append -> 2 | Sync -> 3 | Runtime -> 4
  | Snapshot -> 5 | Activeset -> 6 | Net -> 7

let to_string = function
  | Bench -> "bench" | Persist -> "persist" | Append -> "persist.append"
  | Sync -> "persist.sync" | Runtime -> "runtime" | Snapshot -> "snapshot"
  | Activeset -> "activeset" | Net -> "net"

(* Shims record only while [on] is set: during the timed loop of a
   traced pass, never during set-up or output checks. *)
let on = ref false

(* Operation kind of the operation in progress: 0 = update, 1 = scan.
   Counters are kept per kind. *)
let kind = ref 0

let update_kind = 0

let scan_kind = 1

(* ---- exact counters ---- *)

type counters = {
  ops : int array;  (** per kind *)
  mem : int array;  (** base-object accesses, per kind *)
  cas : int array;
  cas_failed : int array;
  aset_calls : int array;
  collects : int array;  (** fig3 collects, per kind *)
  rt_rounds : int array;  (** Sharded validation rounds, per kind *)
  rt_subscans : int array;  (** per-shard sub-scans, per kind *)
  rt_scans : int array;  (** Sharded scans, per kind *)
  appends : int array;
  bytes : int array;
  syncs : int array;
}

let mk () = Array.make 2 0

let c =
  {
    ops = mk (); mem = mk (); cas = mk (); cas_failed = mk ();
    aset_calls = mk (); collects = mk (); rt_rounds = mk ();
    rt_subscans = mk (); rt_scans = mk (); appends = mk (); bytes = mk ();
    syncs = mk ();
  }

let bump a = a.(!kind) <- a.(!kind) + 1

let add a k = a.(!kind) <- a.(!kind) + k

(* ---- spans ---- *)

(* Self time and span count per (kind, name), and total duration per
   (kind, name); flat arrays indexed [kind * nnames + name]. *)
let self_ns = Array.make (2 * nnames) 0

let dur_ns = Array.make (2 * nnames) 0

let spans = Array.make (2 * nnames) 0

(* Checkpoints run inside the update that crosses the interval: the
   runtime shim marks the checkpoint's full scan, the persist shim closes
   it when the update returns. *)
let ckpt_start = ref (-1)

let ckpt_count = ref 0

let ckpt_ns = ref 0

let max_depth = 64

let st_name = Array.make max_depth 0

let st_start = Array.make max_depth 0

let st_child = Array.make max_depth 0

let st_id = Array.make max_depth 0

let depth = ref 0

(* Raw spans kept for export: id, name, start, stop, parent id, op id. *)
let export_ops = 200

let op_id = ref 0

let next_span = ref 0

let exported : (int * int * int * int * int * int) list ref = ref []

(* Counters, self times and exported spans accumulate over every traced
   pass of a run. *)
let reset () =
  List.iter
    (fun a -> Array.fill a 0 (Array.length a) 0)
    [ c.ops; c.mem; c.cas; c.cas_failed; c.aset_calls; c.collects;
      c.rt_rounds; c.rt_subscans; c.rt_scans; c.appends; c.bytes; c.syncs;
      self_ns; dur_ns; spans ];
  op_id := 0;
  exported := [];
  ckpt_start := -1;
  ckpt_count := 0;
  ckpt_ns := 0;
  depth := 0

let enter n =
  let d = !depth in
  st_name.(d) <- index n;
  st_child.(d) <- 0;
  st_id.(d) <- !next_span;
  incr next_span;
  depth := d + 1;
  st_start.(d) <- now ()

let leave () =
  let t = now () in
  let d = !depth - 1 in
  depth := d;
  let dur = t - st_start.(d) in
  let slot = (!kind * nnames) + st_name.(d) in
  self_ns.(slot) <- self_ns.(slot) + dur - st_child.(d);
  dur_ns.(slot) <- dur_ns.(slot) + dur;
  spans.(slot) <- spans.(slot) + 1;
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
  if !op_id < export_ops then
    exported :=
      ( st_id.(d), st_name.(d), st_start.(d), t,
        (if d > 0 then st_id.(d - 1) else -1),
        !op_id )
      :: !exported

(* [wrap n f x] runs [f x] inside a span named [n]; the stack stays
   balanced if [f] raises. *)
let wrap n f x =
  enter n;
  match f x with
  | r -> leave (); r
  | exception e -> leave (); raise e

let self_of ~kind n = self_ns.((kind * nnames) + index n)

let dur_of ~kind n = dur_ns.((kind * nnames) + index n)

let spans_of ~kind n = spans.((kind * nnames) + index n)

let both f n = f ~kind:0 n + f ~kind:1 n

(* JSON array of the exported spans, oldest first. *)
let spans_json () =
  let b = Buffer.create 65536 in
  Buffer.add_string b "[";
  List.iteri
    (fun i (id, n, s, e, parent, op) ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"id\":%d,\"name\":%S,\"start\":%d,\"end\":%d,\"parent\":%d,\"op\":%d}"
        id (to_string names.(n)) s e parent op)
    (List.rev !exported);
  Buffer.add_string b "]";
  Buffer.contents b
