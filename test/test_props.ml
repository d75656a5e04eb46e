(* Property-based concurrent testing: qcheck generates whole workload
   configurations (vector size, process mix, operation counts, scan widths,
   scheduler family and seed); each case runs a full simulated execution
   and checks the recorded history.  One property per implementation for
   snapshots (observation checker) and one per active set implementation
   (interval-semantics checker); plus, for the WAL, properties of its
   frames, of a commit's frame built from the value, of the checksum, and
   of recovery from a device. *)

open Psnap

module type SNAP = Snapshot.S

module type ASET = Active_set.S

type workload = {
  m : int;
  updaters : int;
  updates : int;
  scanners : int;
  scans : int;
  r : int;
  sched_kind : int;  (** 0 random, 1 bursty, 2 starve-scanners, 3 pct *)
  seed : int;
  crash_clock : int option;
}

let workload_gen =
  QCheck2.Gen.(
    let* m = int_range 1 12 in
    let* updaters = int_range 1 3 in
    let* updates = int_range 1 20 in
    let* scanners = int_range 1 3 in
    let* scans = int_range 1 8 in
    let* r = int_range 1 m in
    let* sched_kind = int_range 0 3 in
    let* seed = int_range 0 10_000 in
    let* crash_clock =
      oneof [ return None; map (fun c -> Some c) (int_range 0 300) ]
    in
    return { m; updaters; updates; scanners; scans; r; sched_kind; seed; crash_clock })

let print_workload w =
  Printf.sprintf
    "{m=%d updaters=%d updates=%d scanners=%d scans=%d r=%d sched=%d seed=%d crash=%s}"
    w.m w.updaters w.updates w.scanners w.scans w.r w.sched_kind w.seed
    (match w.crash_clock with None -> "-" | Some c -> string_of_int c)

let scheduler_of w =
  let scanner_pids =
    List.init w.scanners (fun j -> w.updaters + j)
  in
  let base =
    match w.sched_kind with
    | 0 -> Scheduler.random ~seed:w.seed ()
    | 1 -> Scheduler.bursty ~seed:w.seed ()
    | 2 -> Scheduler.starve ~victims:scanner_pids ~seed:w.seed ()
    | _ -> Scheduler.pct ~seed:w.seed ~expected_steps:500 ()
  in
  match w.crash_clock with
  | None -> base
  | Some at_clock -> Scheduler.with_crash ~pid:0 ~at_clock base

let snapshot_prop ?(mixed = false) name (module S : SNAP) =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "history valid%s: %s"
         (if mixed then " (mixed roles)" else "")
         name)
    ~count:60 ~print:print_workload workload_gen (fun w ->
      let n = w.updaters + w.scanners in
      let init = Array.init w.m (fun i -> -(i + 1)) in
      let hist = History.create ~now:Sim.mark () in
      let t = S.create ~n (Array.copy init) in
      let do_update h pid k =
        let i = (k + pid) mod w.m in
        let v = (pid * 100_000) + k in
        ignore
          (History.record hist ~pid (Snapshot_spec.Update (i, v)) (fun () ->
               S.update h i v;
               Snapshot_spec.Ack))
      in
      let do_scan h pid =
        let idxs = Array.init w.r (fun k -> (k + pid) mod w.m) in
        let idxs = Array.of_list (List.sort_uniq compare (Array.to_list idxs)) in
        ignore
          (History.record hist ~pid (Snapshot_spec.Scan idxs) (fun () ->
               Snapshot_spec.Vals (S.scan h idxs)))
      in
      let updater pid () =
        let h = S.handle t ~pid in
        for k = 1 to w.updates do
          do_update h pid k
        done
      in
      let scanner pid () =
        let h = S.handle t ~pid in
        for _ = 1 to w.scans do
          do_scan h pid
        done
      in
      (* a process that interleaves its own updates and scans: its scans
         must cope with its own earlier writes being visible everywhere *)
      let mixer pid () =
        let h = S.handle t ~pid in
        for k = 1 to min w.updates 8 do
          do_update h pid k;
          do_scan h pid
        done
      in
      let procs =
        Array.init n (fun pid ->
            if mixed && pid = 0 then mixer pid
            else if pid < w.updaters then updater pid
            else scanner pid)
      in
      ignore (Sim.run ~sched:(scheduler_of w) procs);
      Snapshot_spec.check_observations ~init (History.entries hist) = [])

let aset_prop name (module A : ASET) =
  QCheck2.Test.make ~name:("getSets valid: " ^ name) ~count:60
    ~print:print_workload workload_gen (fun w ->
      let members = w.updaters and observers = w.scanners in
      let n = members + observers in
      let hist = History.create ~now:Sim.mark () in
      let t = A.create ~n () in
      let member pid () =
        let h = A.handle t ~pid in
        for _ = 1 to w.updates do
          ignore
            (History.record hist ~pid Activeset_check.Join (fun () ->
                 A.join h;
                 Activeset_check.Ack));
          ignore
            (History.record hist ~pid Activeset_check.Leave (fun () ->
                 A.leave h;
                 Activeset_check.Ack))
        done
      in
      let observer pid () =
        for _ = 1 to w.scans do
          ignore
            (History.record hist ~pid Activeset_check.Get_set (fun () ->
                 Activeset_check.Set (A.get_set t)))
        done
      in
      let procs =
        Array.init n (fun pid -> if pid < members then member pid else observer pid)
      in
      ignore (Sim.run ~sched:(scheduler_of w) procs);
      Activeset_check.check (History.entries hist) = [])

(* scan results never contain values from the wrong component, under any
   generated workload (redundant with the checker, but self-contained) *)
let values_belong_prop =
  QCheck2.Test.make ~name:"scan values belong to their component" ~count:40
    ~print:print_workload workload_gen (fun w ->
      let module S = Sim_fig3 in
      let n = w.updaters + w.scanners in
      let t = S.create ~n (Array.init w.m (fun i -> -(i + 1))) in
      let ok = ref true in
      let updater pid () =
        let h = S.handle t ~pid in
        for k = 1 to w.updates do
          let i = (k + pid) mod w.m in
          (* value encodes its component *)
          S.update h i ((i * 1_000_000) + (pid * 1_000) + k)
        done
      in
      let scanner pid () =
        let h = S.handle t ~pid in
        let idxs = Array.init w.r (fun k -> (k * 7) mod w.m) in
        let idxs = Array.of_list (List.sort_uniq compare (Array.to_list idxs)) in
        for _ = 1 to w.scans do
          let vs = S.scan h idxs in
          Array.iteri
            (fun k v ->
              if v >= 0 && v / 1_000_000 <> idxs.(k) then ok := false
              else if v < 0 && v <> -(idxs.(k) + 1) then ok := false)
            vs
        done
      in
      let procs =
        Array.init n (fun pid ->
            if pid < w.updaters then updater pid else scanner pid)
      in
      ignore (Sim.run ~sched:(scheduler_of w) procs);
      !ok)

(* WAL frames: a random record list round-trips through [encode] and
   [decode_all], and every strict prefix of its log — what a power loss
   can leave — decodes to the whole frames before the cut, torn unless the
   cut falls between two frames. *)
let wal_record_gen =
  let module Wal = Persist.Wal in
  QCheck2.Gen.(
    let payload =
      oneof
        [
          map (fun (v : int) -> Marshal.to_string v []) int;
          map (fun (s : string) -> Marshal.to_string s []) string_small;
          map
            (fun (a : int array) -> Marshal.to_string a [])
            (array_size (int_range 0 20) int);
        ]
    in
    let* kind = int_range 0 3 in
    match kind with
    | 0 ->
      let* lsn = int and* pid = int and* index = int and* payload = payload in
      return (Wal.Update { lsn; pid; index; payload })
    | 1 ->
      let* gen = int and* payload = payload in
      return (Wal.Scan_seal { gen; payload })
    | 2 ->
      let* gen = int and* next_lsn = int in
      return (Wal.Checkpoint_begin { gen; next_lsn })
    | _ ->
      let* gen = int in
      return (Wal.Checkpoint_end { gen }))

let wal_prop =
  let module Wal = Persist.Wal in
  QCheck2.Test.make ~name:"wal frames round-trip, prefixes tear at a frame"
    ~count:100
    ~print:(fun rs -> Fmt.str "%a" Fmt.(Dump.list Wal.pp_record) rs)
    QCheck2.Gen.(list_size (int_range 0 8) wal_record_gen)
    (fun records ->
      let frames = List.map Wal.encode records in
      let log = String.concat "" frames in
      let whole = Wal.decode_all log in
      (* [ends.(k)]: the log offset after the first [k] frames *)
      let ends =
        Array.of_list
          (List.rev
             (List.fold_left
                (fun acc f -> (List.hd acc + String.length f) :: acc)
                [ 0 ] frames))
      in
      let prefix_ok cut =
        let d = Wal.decode_all (String.sub log 0 cut) in
        let k = ref 0 in
        while ends.(!k + 1) <= cut do
          incr k
        done;
        d.Wal.good_bytes = ends.(!k)
        && d.Wal.records = List.filteri (fun i _ -> i < !k) records
        && d.Wal.damage = if cut = ends.(!k) then Wal.Clean else Wal.Torn
      in
      whole.Wal.damage = Wal.Clean
      && whole.Wal.records = records
      && whole.Wal.good_bytes = String.length log
      && List.for_all prefix_ok (List.init (String.length log) Fun.id))

(* A commit's frame, built from the value: for random fields and random
   values of several types, [append_update] appends exactly the bytes of
   [encode] over the record with the marshalled payload, and so does
   [append_seal], a checkpoint's seal, over its [Scan_seal].  One scratch
   serves every case, so it grows on the large values (its first size is
   256 bytes) and is reused, stale bytes and all, by the later small
   ones. *)
type commit_value =
  | Int of int
  | Str of string
  | Floats of float array
  | Nested of (int * (string * float array) * int list)
  | Big of int array

let commit_value_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun v -> Int v) int;
        map (fun v -> Str v) string_small;
        map (fun v -> Floats v) (array_size (int_range 0 20) float);
        map
          (fun v -> Nested v)
          (triple int
             (pair string_small (array_size (int_range 0 4) float))
             (list_size (int_range 0 6) int));
        map (fun v -> Big v) (array_size (int_range 40 3_000) int);
      ])

let print_commit_value = function
  | Int v -> string_of_int v
  | Str v -> Printf.sprintf "%S" v
  | Floats v -> Printf.sprintf "%d floats" (Array.length v)
  | Nested (i, (s, f), l) ->
    Printf.sprintf "(%d, (%S, %d floats), %d ints)" i s (Array.length f)
      (List.length l)
  | Big v -> Printf.sprintf "%d ints" (Array.length v)

let update_frame_prop =
  let module Wal = Persist.Wal in
  let module Mc = Persist.Storage.Mc in
  let module W = Wal.Make (Mc) in
  let sc = Wal.scratch () in
  QCheck2.Test.make ~name:"a commit's frame = encode of its record"
    ~count:300
    ~print:(fun frames ->
      String.concat "; "
        (List.map
           (fun (seal, (lsn, pid, index, v)) ->
             if seal then
               Printf.sprintf "seal gen=%d %s" lsn (print_commit_value v)
             else
               Printf.sprintf "lsn=%d p%d i=%d %s" lsn pid index
                 (print_commit_value v))
           frames))
    QCheck2.Gen.(
      list_size (int_range 1 3)
        (pair bool (quad int int int commit_value_gen)))
    (fun frames ->
      let dev = Mc.create ~name:"frames" in
      (* A seal's gen is the drawn lsn. *)
      let append (type a) seal ~lsn ~pid ~index (v : a) =
        let payload = Marshal.to_string v [] in
        if seal then begin
          W.append_seal dev sc ~gen:lsn v;
          Wal.encode (Wal.Scan_seal { gen = lsn; payload })
        end
        else begin
          W.append_update dev sc ~lsn ~pid ~index v;
          Wal.encode (Wal.Update { lsn; pid; index; payload })
        end
      in
      let want =
        List.map
          (fun (seal, (lsn, pid, index, v)) ->
            match v with
            | Int v -> append seal ~lsn ~pid ~index v
            | Str v -> append seal ~lsn ~pid ~index v
            | Floats v -> append seal ~lsn ~pid ~index v
            | Nested v -> append seal ~lsn ~pid ~index v
            | Big v -> append seal ~lsn ~pid ~index v)
          frames
      in
      Mc.with_contents dev (fun log n -> String.sub log 0 n)
      = String.concat "" want)

(* The checksum against MurmurHash3_x86_32 as it was first written here:
   one 4-byte word per round, each read with a bounds check.  Every
   slice of a random string is checked up to 40 bytes long from a random
   offset, so every length mod 8 meets every alignment; and slices out of
   range must raise. *)
module Murmur_reference = struct
  let mask32 = 0xFFFF_FFFF

  let rotl32 x r = ((x lsl r) lor (x lsr (32 - r))) land mask32

  let scramble w =
    rotl32 (w * 0xcc9e2d51 land mask32) 15 * 0x1b873593 land mask32

  let mix h w = (rotl32 (h lxor scramble w) 13 * 5 + 0xe6546b64) land mask32

  let fmix h =
    let h = h lxor (h lsr 16) * 0x85ebca6b land mask32 in
    let h = h lxor (h lsr 13) * 0xc2b2ae35 land mask32 in
    h lxor (h lsr 16)

  let checksum_sub s off len =
    let h = ref 0 and i = ref off in
    let words_end = off + (len land lnot 3) in
    while !i < words_end do
      h := mix !h (Int32.to_int (String.get_int32_le s !i) land mask32);
      i := !i + 4
    done;
    if words_end < off + len then begin
      let w = ref 0 in
      for j = off + len - 1 downto words_end do
        w := (!w lsl 8) lor Char.code s.[j]
      done;
      h := !h lxor scramble !w
    end;
    fmix (!h lxor len)
end

let checksum_prop =
  let module Wal = Persist.Wal in
  QCheck2.Test.make ~name:"checksum_sub = reference MurmurHash3" ~count:500
    ~print:(fun (s, off, (bad_off, bad_len)) ->
      Printf.sprintf "%S from %d; out of range (%d, %d)" s off bad_off bad_len)
    QCheck2.Gen.(
      let* s = string_size (int_range 0 80) in
      let n = String.length s in
      let* off = int_range 0 n in
      let* bad =
        oneof
          [
            map (fun o -> (-o, 0)) (int_range 1 9);
            map (fun l -> (0, -l)) (int_range 1 9);
            map (fun o -> (n + o, 0)) (int_range 1 9);
            map2 (fun o l -> (o, n - o + l)) (int_range 0 n) (int_range 1 9);
          ]
      in
      return (s, off, bad))
    (fun (s, off, (bad_off, bad_len)) ->
      let fits = min 40 (String.length s - off) in
      List.for_all
        (fun len ->
          Wal.checksum_sub s off len = Murmur_reference.checksum_sub s off len)
        (List.init (fits + 1) Fun.id)
      &&
      match Wal.checksum_sub s bad_off bad_len with
      | _ -> false
      | exception Invalid_argument _ -> true)

(* Recovery on a device: a random log, damaged or not, recovers on both
   devices to what an eager replay of its decoded records gives.  The
   eager replay is recovery as it was before unmarshalling was deferred:
   each update is unmarshalled as it is read, and each complete triple
   resets the base to its unmarshalled seal; an update is applied iff its
   lsn is above the last lsn applied to its component since the triple,
   or the triple's floor.  The logs draw lsns per stripe of the commit
   lock (component [i] in stripe [i land 1]), so lsns rise per component
   and interleave across stripes.  They hold duplicate and stale lsns,
   complete, partial and out-of-order triples, generations
   drawn again after a truncation, and optionally a torn tail and one
   flipped byte.  Some triples are checkpoints the engine writes on the
   device, and each discards the log before it: the device must then
   hold, and recover from, exactly the log from the last of them on. *)
type wal_op =
  | Commit of int * int  (** index, value: at its stripe's next lsn *)
  | Again of int * int
      (** its stripe's last lsn once more: an owner's re-append *)
  | Stale of int * int * int
      (** an lsn this far below its stripe's last one *)
  | Triple of int array
      (** a complete checkpoint sealing this view; both stripes restart
          at its next_lsn *)
  | Checkpoint of int array
      (** the same, written by [Checkpoint.write], which then discards
          the log before it *)
  | Partial of int * int * int array
      (** a shape of incomplete or out-of-order triple, how far its
          next_lsn lags, and its view *)
  | Lone_end of int  (** an end for some generation so far *)
  | Cut of int * int
      (** drop this many of the newest records, but none written before
          the last [Checkpoint]'s end, then draw generations again from a
          lower one *)

type wal_case = {
  ops : wal_op list;
  tear : int option;  (** bytes of one more frame, cut short *)
  flip : (int * int) option;
      (** a byte position and a nonzero xor mask; a byte of a
          [Checkpoint]'s triple is not flipped *)
}

let wal_m = 3

let wal_case_gen =
  QCheck2.Gen.(
    let index = int_range 0 (wal_m - 1) and value = int_range 0 999 in
    let view = array_size (return wal_m) value in
    let op =
      frequency
        [
          (4, map2 (fun i v -> Commit (i, v)) index value);
          (1, map2 (fun i v -> Again (i, v)) index value);
          (1, map3 (fun k i v -> Stale (k, i, v)) (int_range 0 3) index value);
          (2, map (fun v -> Triple v) view);
          (1, map (fun v -> Checkpoint v) view);
          ( 1,
            map3
              (fun s d v -> Partial (s, d, v))
              (int_range 0 4) (int_range 0 3) view );
          (1, map (fun g -> Lone_end g) (int_range 0 9));
          (1, map2 (fun c g -> Cut (c, g)) (int_range 0 8) (int_range 0 9));
        ]
    in
    let* ops = list_size (int_range 0 40) op
    and* tear = option ~ratio:0.4 (int_range 1 60)
    and* flip =
      option ~ratio:0.4 (pair (int_range 0 100_000) (int_range 1 255))
    in
    return { ops; tear; flip })

(* The records in log order, and the positions in it of the first record
   of each [Checkpoint]'s triple. *)
let records_of_ops ops =
  let module Wal = Persist.Wal in
  let log = ref [] and len = ref 0 and lsns = [| 0; 0 |] and gen = ref 0 in
  let top () = max lsns.(0) lsns.(1) in
  let sealed = ref [] in
  let emit r =
    log := r :: !log;
    incr len
  in
  let update lsn index (v : int) =
    emit (Wal.Update { lsn; pid = 0; index; payload = Marshal.to_string v [] })
  in
  let seal gen (view : int array) =
    Wal.Scan_seal { gen; payload = Marshal.to_string view [] }
  in
  let triple view =
    incr gen;
    let floor = top () in
    emit (Wal.Checkpoint_begin { gen = !gen; next_lsn = floor + 1 });
    emit (seal !gen view);
    emit (Wal.Checkpoint_end { gen = !gen });
    Array.fill lsns 0 2 floor
  in
  List.iter
    (function
      | Commit (i, v) ->
        lsns.(i land 1) <- lsns.(i land 1) + 1;
        update lsns.(i land 1) i v
      | Again (i, v) -> update lsns.(i land 1) i v
      | Stale (k, i, v) -> update (max 0 (lsns.(i land 1) - k)) i v
      | Triple view -> triple view
      | Checkpoint view ->
        sealed := !len :: !sealed;
        triple view
      | Partial (shape, lag, view) ->
        incr gen;
        let b =
          Wal.Checkpoint_begin { gen = !gen; next_lsn = max 0 (top () + 1 - lag) }
        and s = seal !gen view
        and e = Wal.Checkpoint_end { gen = !gen } in
        List.iter emit
          (match shape with
          | 0 -> [ b ]
          | 1 -> [ b; s ]
          | 2 -> [ s; e ]
          | 3 -> [ b; e ]
          | _ -> [ s; b; e ])
      | Lone_end g -> emit (Wal.Checkpoint_end { gen = 1 + (g mod (!gen + 1)) })
      | Cut (c, g) ->
        let floor = match !sealed with at :: _ -> at + 3 | [] -> 0 in
        let c = min c (!len - floor) in
        log := List.filteri (fun i _ -> i >= c) !log;
        len := !len - c;
        gen := g mod (!gen + 1))
    ops;
  (List.rev !log, List.rev !sealed)

(* How a case reaches a device: bytes appended as they are, and the
   triples the engine writes. *)
type segment =
  | Raw of string
  | Sealed of { gen : int; next_lsn : int; view : int array }

(* The case's segments, and the log the device should hold after them:
   the bytes from the last [Checkpoint]'s triple on. *)
let log_of_case c =
  let module Wal = Persist.Wal in
  let records, sealed = records_of_ops c.ops in
  let records = Array.of_list records in
  let frames = Array.map Wal.encode records in
  let starts = Array.make (Array.length frames + 1) 0 in
  Array.iteri
    (fun i f -> starts.(i + 1) <- starts.(i) + String.length f)
    frames;
  let in_triple i =
    List.exists (fun at -> starts.(at) <= i && i < starts.(at + 3)) sealed
  in
  let log = String.concat "" (Array.to_list frames) in
  let log =
    match c.tear with
    | None -> log
    | Some k ->
      let payload = Marshal.to_string 7 [] in
      let f = Wal.encode (Wal.Update { lsn = 1_000; pid = 0; index = 0; payload }) in
      log ^ String.sub f 0 (k mod String.length f)
  in
  let log =
    match c.flip with
    | Some (pos, mask)
      when log <> "" && not (in_triple (pos mod String.length log)) ->
      let b = Bytes.of_string log in
      let i = pos mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
      Bytes.to_string b
    | _ -> log
  in
  let from off = String.sub log off (String.length log - off) in
  let rec segments off = function
    | [] -> [ Raw (from off) ]
    | at :: rest -> (
      match (records.(at), records.(at + 1)) with
      | Wal.Checkpoint_begin { gen; next_lsn }, Wal.Scan_seal { payload; _ } ->
        Raw (String.sub log off (starts.(at) - off))
        :: Sealed { gen; next_lsn; view = Marshal.from_string payload 0 }
        :: segments starts.(at + 3) rest
      | _ -> assert false)
  in
  let kept = match List.rev sealed with at :: _ -> starts.(at) | [] -> 0 in
  (segments 0 sealed, from kept)

let eager_replay ~init records =
  let module Wal = Persist.Wal in
  let begins = Hashtbl.create 4 and seals = Hashtbl.create 4 in
  let values = ref (Array.copy init) and replayed = ref 0 in
  let applied = Array.make (Array.length init) 0 in
  let gen = ref 0 and horizon = ref 0 in
  List.iter
    (function
      | Wal.Update { lsn; index; payload; _ } ->
        horizon := max !horizon lsn;
        if lsn > applied.(index) then begin
          !values.(index) <- Marshal.from_string payload 0;
          applied.(index) <- lsn;
          incr replayed
        end
      | Wal.Checkpoint_begin { gen; next_lsn } ->
        Hashtbl.replace begins gen next_lsn;
        horizon := max !horizon (next_lsn - 1)
      | Wal.Scan_seal { gen; payload } -> Hashtbl.replace seals gen payload
      | Wal.Checkpoint_end { gen = g } -> (
        match (Hashtbl.find_opt begins g, Hashtbl.find_opt seals g) with
        | Some next_lsn, Some payload ->
          values := Marshal.from_string payload 0;
          Array.fill applied 0 (Array.length applied) (next_lsn - 1);
          replayed := 0;
          gen := g
        | _ -> ()))
    records;
  {
    Persist.Recovery.values = !values;
    next_lsn = !horizon + 1;
    replayed = !replayed;
    checkpoint_gen = !gen;
  }

(* Write a case's segments to a fresh device, raw bytes in 100-byte
   pieces, and load it: the state, the damage, and the device's size
   after repair. *)
module Load_on (St : Persist.Storage.S) = struct
  module R = Persist.Recovery.Make (St)
  module C = Persist.Checkpoint.Make (St)

  let load segments ~init =
    let dev = St.create ~name:"wal" and sc = Persist.Wal.scratch () in
    let rec raw s off =
      let n = String.length s in
      if off < n then begin
        St.append dev (String.sub s off (min 100 (n - off)));
        raw s (off + 100)
      end
    in
    List.iter
      (function
        | Raw s -> raw s 0
        | Sealed { gen; next_lsn; view } -> C.write dev sc ~gen ~next_lsn view)
      segments;
    let st, damage = R.load dev ~init in
    (st, damage, St.size dev)
end

module Load_sim = Load_on (Persist.Storage.Sim)
module Load_mc = Load_on (Persist.Storage.Mc)

let recovery_prop =
  let module Wal = Persist.Wal in
  QCheck2.Test.make ~name:"device recovery = eager replay, on Sim and Mc"
    ~count:300
    ~print:(fun c ->
      Fmt.str "%a checkpoints at %a tear=%a flip=%a"
        Fmt.(Dump.list Wal.pp_record)
        (fst (records_of_ops c.ops))
        Fmt.(Dump.list int)
        (snd (records_of_ops c.ops))
        Fmt.(Dump.option int)
        c.tear
        Fmt.(Dump.option (Dump.pair int int))
        c.flip)
    wal_case_gen
    (fun c ->
      let segments, log = log_of_case c in
      let init = Array.init wal_m (fun i -> -1 - i) in
      let d = Wal.decode_all log in
      let want = eager_replay ~init d.Wal.records in
      let agrees ((st : int Persist.Recovery.state), damage, size) =
        st.values = want.values
        && st.next_lsn = want.next_lsn
        && st.replayed = want.replayed
        && st.checkpoint_gen = want.checkpoint_gen
        && damage = d.Wal.damage
        && size = d.Wal.good_bytes
      in
      Persist.Storage.Sim.reset ();
      agrees (Load_sim.load segments ~init)
      && agrees (Load_mc.load segments ~init))

let () =
  Alcotest.run "props"
    [
      ( "snapshots",
        List.map
          (fun (n, m) -> QCheck_alcotest.to_alcotest (snapshot_prop n m))
          On_sim.snapshots );
      ( "snapshots-mixed-roles",
        List.map
          (fun (n, m) ->
            QCheck_alcotest.to_alcotest (snapshot_prop ~mixed:true n m))
          On_sim.snapshots );
      ( "active-sets",
        List.map
          (fun (n, m) -> QCheck_alcotest.to_alcotest (aset_prop n m))
          On_sim.active_sets );
      ( "values",
        [ QCheck_alcotest.to_alcotest values_belong_prop ] );
      ( "wal",
        [
          QCheck_alcotest.to_alcotest wal_prop;
          QCheck_alcotest.to_alcotest update_frame_prop;
          QCheck_alcotest.to_alcotest checksum_prop;
          QCheck_alcotest.to_alcotest recovery_prop;
        ] );
    ]
