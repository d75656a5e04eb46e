(* Tests of the durability layer (lib/persist): WAL framing edge cases
   (golden frame bytes, the checksum's test vectors, empty log, torn
   tail, checksum corruption mid-log, checksummed bodies of the wrong
   shape, every single-bit flip of a frame, checkpoint-begin without
   end, duplicate-lsn dedup, lsns of two stripes interleaved in the log,
   double-recovery idempotence), the one-pass replay against the
   two-walk reference on random logs,
   discarding a device's prefix (refused past the synced bytes, and a
   later blackout tears the same tail), what a checkpoint seals, the
   checkpoint triple, the log a checkpoint leaves (one triple and the
   commits since), what a recovery and a commit allocate, the names
   simulated cells keep, and the durable snapshot under simulated power
   losses — a mini exhaustive sweep, also with a checkpoint every two
   commits (a blackout at every schedule point must recover to a
   durably-linearizable state), two domains committing and sealing on
   one store over the multicore device,
   plain crash–restart intent resumption, checkpointed recovery, and the
   committed E18 witness schedule, which must drive the deliberately
   unsound late-log mode to a committed-then-lost violation while
   leaving the sound write-ahead mode clean. *)

open Psnap
open Psnap_harness
module Wal = Persist.Wal
module Recovery = Persist.Recovery
module St = Persist.Storage.Sim
module WIO = Persist.Wal.Make (Persist.Storage.Sim)
module R = Persist.Recovery.Make (Persist.Storage.Sim)
module C = Persist.Checkpoint.Make (Persist.Storage.Sim)
module D = Sim_durable_fig3
module M = Psnap_sched.Mem_sim

let () = M.set_strict true

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let pay (v : int) = Marshal.to_string v []

let upd ~lsn ~index v = Wal.Update { lsn; pid = 0; index; payload = pay v }

let ints_of (st : int Recovery.state) = st.Recovery.values

(* ---- WAL framing ---- *)

let test_roundtrip () =
  let records =
    [
      upd ~lsn:1 ~index:0 42;
      Wal.Checkpoint_begin { gen = 1; next_lsn = 2 };
      Wal.Scan_seal { gen = 1; payload = Marshal.to_string [| 42; -2 |] [] };
      Wal.Checkpoint_end { gen = 1 };
      upd ~lsn:2 ~index:1 7;
    ]
  in
  let log = String.concat "" (List.map Wal.encode records) in
  let d = Wal.decode_all log in
  check_bool "clean" true (d.Wal.damage = Wal.Clean);
  check_int "all records decode" (List.length records)
    (List.length d.Wal.records);
  check_int "good_bytes = full log" (String.length log) d.Wal.good_bytes

let test_empty_log () =
  let d = Wal.decode_all "" in
  check_bool "clean" true (d.Wal.damage = Wal.Clean);
  check_int "no records" 0 (List.length d.Wal.records);
  check_int "no bytes" 0 d.Wal.good_bytes;
  St.reset ();
  let dev = St.create ~name:"t" in
  let st, damage = R.load dev ~init:[| -1; -2 |] in
  check_bool "fresh device is clean" true (damage = Wal.Clean);
  check_bool "recovers to init" true (ints_of st = [| -1; -2 |]);
  check_int "first lsn" 1 st.Recovery.next_lsn;
  check_int "nothing replayed" 0 st.Recovery.replayed;
  check_int "no checkpoint" 0 st.Recovery.checkpoint_gen

let test_torn_tail () =
  St.reset ();
  let dev = St.create ~name:"t" in
  WIO.append dev (upd ~lsn:1 ~index:0 10);
  WIO.append dev (upd ~lsn:2 ~index:1 20);
  St.sync dev;
  (* a power loss mid-append leaves a prefix of the next frame *)
  let torn = Wal.encode (upd ~lsn:3 ~index:0 30) in
  St.append dev (String.sub torn 0 (String.length torn - 5));
  let d = WIO.read_all ~repair:true dev in
  check_bool "torn" true (d.Wal.damage = Wal.Torn);
  check_int "valid prefix survives" 2 (List.length d.Wal.records);
  check_int "repair truncated the device" d.Wal.good_bytes (St.size dev);
  let d2 = WIO.read_all dev in
  check_bool "clean after repair" true (d2.Wal.damage = Wal.Clean);
  check_int "same records" 2 (List.length d2.Wal.records)

let test_corrupt_mid_log () =
  let r1 = Wal.encode (upd ~lsn:1 ~index:0 10) in
  let r2 = Wal.encode (upd ~lsn:2 ~index:1 20) in
  let r3 = Wal.encode (upd ~lsn:3 ~index:0 30) in
  let log = Bytes.of_string (r1 ^ r2 ^ r3) in
  (* flip a byte inside r2's body (past its header) *)
  let off = String.length r1 + Wal.header_len + 2 in
  Bytes.set log off (Char.chr (Char.code (Bytes.get log off) lxor 0xFF));
  let d = Wal.decode_all (Bytes.to_string log) in
  check_bool "corrupt, not torn" true (d.Wal.damage = Wal.Corrupt);
  check_int "decoding stops before the damaged frame" 1
    (List.length d.Wal.records);
  check_int "good_bytes = r1" (String.length r1) d.Wal.good_bytes

let test_begin_without_end () =
  let records =
    [
      upd ~lsn:1 ~index:0 10;
      Wal.Checkpoint_begin { gen = 1; next_lsn = 2 };
      Wal.Scan_seal { gen = 1; payload = Marshal.to_string [| 10; -2 |] [] };
      (* no Checkpoint_end: the triple is invisible to recovery *)
      upd ~lsn:2 ~index:1 20;
    ]
  in
  let st = Recovery.replay ~init:[| -1; -2 |] records in
  check_bool "falls back to init + full replay" true
    (ints_of st = [| 10; 20 |]);
  check_int "no checkpoint trusted" 0 st.Recovery.checkpoint_gen;
  check_int "both updates replayed" 2 st.Recovery.replayed;
  check_int "lsn horizon past everything" 3 st.Recovery.next_lsn

let test_duplicate_lsn_dedup () =
  (* owner recovery may conservatively re-append an lsn that survived *)
  let records =
    [ upd ~lsn:1 ~index:0 10; upd ~lsn:1 ~index:0 10; upd ~lsn:2 ~index:1 20 ]
  in
  let st = Recovery.replay ~init:[| -1; -2 |] records in
  check_bool "values" true (ints_of st = [| 10; 20 |]);
  check_int "duplicate applied once" 2 st.Recovery.replayed;
  check_int "next lsn" 3 st.Recovery.next_lsn;
  (* a resumed commit re-appends after its dead incarnation's checkpoint
     of that commit, torn or complete *)
  let begin_ = Wal.Checkpoint_begin { gen = 1; next_lsn = 2 }
  and seal = Wal.Scan_seal { gen = 1; payload = Marshal.to_string [| 10; -2 |] [] }
  and end_ = Wal.Checkpoint_end { gen = 1 } in
  List.iter
    (fun (triple, replayed) ->
      let st =
        Recovery.replay ~init:[| -1; -2 |]
          ((upd ~lsn:1 ~index:0 10 :: triple)
          @ [ upd ~lsn:1 ~index:0 10; upd ~lsn:2 ~index:1 20 ])
      in
      check_bool "values" true (ints_of st = [| 10; 20 |]);
      check_int "duplicate across a triple applied once" replayed
        st.Recovery.replayed;
      check_int "next lsn" 3 st.Recovery.next_lsn)
    [ ([ begin_; seal ], 2); ([ begin_; seal; end_ ], 1) ]

(* Each stripe of the commit lock draws its own lsns, so a stripe's
   lower lsn can follow another's higher one in the log: the lsn filter is
   per component, and keeps both. *)
let test_interleaved_stripes () =
  let records =
    [
      upd ~lsn:1 ~index:0 10;
      upd ~lsn:2 ~index:0 11;
      upd ~lsn:3 ~index:0 12;
      upd ~lsn:1 ~index:1 20;
      upd ~lsn:4 ~index:0 13;
      upd ~lsn:2 ~index:1 21;
    ]
  in
  let st = Recovery.replay ~init:[| -1; -2 |] records in
  check_bool "both stripes' last values" true (ints_of st = [| 13; 21 |]);
  check_int "every update replayed" 6 st.Recovery.replayed;
  check_int "next lsn above every stripe's" 5 st.Recovery.next_lsn;
  (* a checkpoint releases every stripe at its next_lsn: the commits
     after its triple are above its floor, whatever their stripe *)
  let st =
    Recovery.replay ~init:[| -1; -2 |]
      (records
      @ [
          Wal.Checkpoint_begin { gen = 1; next_lsn = 5 };
          Wal.Scan_seal { gen = 1; payload = Marshal.to_string [| 13; 21 |] [] };
          Wal.Checkpoint_end { gen = 1 };
          upd ~lsn:6 ~index:0 14;
          upd ~lsn:5 ~index:1 22;
        ])
  in
  check_bool "the seal plus both stripes" true (ints_of st = [| 14; 22 |]);
  check_int "both replayed past the triple" 2 st.Recovery.replayed;
  check_int "from the triple" 1 st.Recovery.checkpoint_gen;
  check_int "next lsn" 7 st.Recovery.next_lsn

(* A resumed commit re-appends its intent's lsn, and other stripes'
   commits may land between the two copies: the second copy is still
   dropped, even once its component has moved on. *)
let test_duplicate_across_stripes () =
  let st =
    Recovery.replay ~init:[| -1; -2 |]
      [
        upd ~lsn:3 ~index:0 10;
        upd ~lsn:7 ~index:1 20;
        upd ~lsn:3 ~index:0 10;
        upd ~lsn:4 ~index:0 11;
        upd ~lsn:8 ~index:1 21;
        upd ~lsn:3 ~index:0 10;
      ]
  in
  check_bool "values" true (ints_of st = [| 11; 21 |]);
  check_int "each copy applied once" 4 st.Recovery.replayed;
  check_int "next lsn" 9 st.Recovery.next_lsn

(* ---- replay equivalence ----

   The two-walk replay recovery used before it became one fold: find the
   last complete triple, then replay the suffix after it, then raise the
   lsn horizon over the whole log.  Its filter is the per-component one:
   an update is replayed iff its lsn is above the triple's floor and
   above the last lsn replayed for its component.  Kept here only as the
   reference the fold must agree with. *)
let reference_replay ~init records =
  let recs = Array.of_list records in
  let n = Array.length recs in
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
  let applied = Array.make (Array.length init) last_lsn0 in
  let replayed = ref 0 in
  for at = start to n - 1 do
    match recs.(at) with
    | Wal.Update { lsn; index; payload; _ } when lsn > applied.(index) ->
      values.(index) <- Marshal.from_string payload 0;
      applied.(index) <- lsn;
      incr replayed
    | _ -> ()
  done;
  (* lsns start at 1: a triple claiming a lower next_lsn lowers none *)
  let last_lsn = ref (max 0 last_lsn0) in
  Array.iter
    (fun r ->
      match r with
      | Wal.Update { lsn; _ } -> if lsn > !last_lsn then last_lsn := lsn
      | Wal.Checkpoint_begin { next_lsn; _ } ->
        if next_lsn - 1 > !last_lsn then last_lsn := next_lsn - 1
      | _ -> ())
    recs;
  {
    Recovery.values;
    next_lsn = !last_lsn + 1;
    replayed = !replayed;
    checkpoint_gen = gen;
  }

(* A random log over [m] components whose lsns are drawn per stripe, as
   the commit lock's stripes draw them: component [i] in stripe
   [i land 1], so lsns rise per component and interleave across the two
   stripes.  Also duplicate and stale lsns; complete, partial and
   out-of-order triples (a complete one restarts both stripes at its
   next_lsn, as a checkpoint releases them); and truncations, after
   which generation numbers are drawn again from below. *)
let random_log ~m rng =
  let int n = Random.State.int rng n in
  let log = ref [] and lsns = [| 0; 0 |] and gen = ref 0 in
  let top () = max lsns.(0) lsns.(1) in
  let emit r = log := r :: !log in
  let update i lsn = emit (upd ~lsn ~index:i (int 1000)) in
  let seal gen =
    let view = Array.init m (fun _ -> int 1000) in
    Wal.Scan_seal { gen; payload = Marshal.to_string view [] }
  in
  for _ = 1 to int 40 do
    let i = int m in
    let s = i land 1 in
    match int 12 with
    | 0 | 1 | 2 | 3 ->
      lsns.(s) <- lsns.(s) + 1;
      update i lsns.(s)
    | 4 -> update i lsns.(s)
    | 5 -> update i (int (lsns.(s) + 1))
    | 6 | 7 ->
      incr gen;
      let floor = top () in
      emit (Wal.Checkpoint_begin { gen = !gen; next_lsn = floor + 1 });
      emit (seal !gen);
      emit (Wal.Checkpoint_end { gen = !gen });
      Array.fill lsns 0 2 floor
    | 8 -> (
      incr gen;
      let b = Wal.Checkpoint_begin { gen = !gen; next_lsn = int (top () + 2) }
      and e = Wal.Checkpoint_end { gen = !gen } in
      List.iter emit
        (match int 5 with
        | 0 -> [ b ]
        | 1 -> [ b; seal !gen ]
        | 2 -> [ seal !gen; e ]
        | 3 -> [ b; e ]
        | _ -> [ seal !gen; b; e ]))
    | 9 -> emit (Wal.Checkpoint_end { gen = 1 + int (!gen + 1) })
    | _ ->
      let cut = int (List.length !log + 1) in
      log := List.filteri (fun i _ -> i >= cut) !log;
      gen := int (!gen + 1)
  done;
  List.rev !log

let test_replay_matches_reference () =
  let m = 3 in
  let init = [| -1; -2; -3 |] in
  let triples = ref 0 and resets = ref 0 in
  for seed = 0 to 999 do
    let rng = Random.State.make [| seed |] in
    let log = random_log ~m rng in
    let want = reference_replay ~init log in
    let same (got : int Recovery.state) =
      got.Recovery.values = want.Recovery.values
      && got.next_lsn = want.next_lsn
      && got.replayed = want.replayed
      && got.checkpoint_gen = want.checkpoint_gen
    in
    if not (same (Recovery.replay ~init log)) then
      Alcotest.failf "seed %d: replay differs from the reference" seed;
    St.reset ();
    let dev = St.create ~name:"t" in
    List.iter (WIO.append dev) log;
    if not (same (fst (R.load dev ~init))) then
      Alcotest.failf "seed %d: device recovery differs from the reference"
        seed;
    if want.checkpoint_gen > 0 then incr triples;
    if want.checkpoint_gen > 0 && want.replayed = 0 then incr resets
  done;
  (* the generator reaches both recovery shapes often *)
  check_bool "many logs recover from a triple" true (!triples > 300);
  check_bool "many logs recover from init" true (!triples < 700);
  check_bool "some triples end their log" true (!resets > 50)

let test_checkpoint_roundtrip () =
  St.reset ();
  let dev = St.create ~name:"t" in
  WIO.append dev (upd ~lsn:1 ~index:0 10);
  St.sync dev;
  C.write dev (Wal.scratch ()) ~gen:1 ~next_lsn:2 [| 10; -2 |];
  WIO.append dev (upd ~lsn:2 ~index:1 20);
  St.sync dev;
  let st, damage = R.load dev ~init:[| -1; -2 |] in
  check_bool "clean" true (damage = Wal.Clean);
  check_bool "checkpoint + suffix" true (ints_of st = [| 10; 20 |]);
  check_int "recovered generation" 1 st.Recovery.checkpoint_gen;
  check_int "only the suffix replayed" 1 st.Recovery.replayed;
  check_int "next lsn" 3 st.Recovery.next_lsn

let test_double_recovery_idempotent () =
  St.reset ();
  let dev = St.create ~name:"t" in
  WIO.append dev (upd ~lsn:1 ~index:0 10);
  WIO.append dev (upd ~lsn:2 ~index:1 20);
  St.sync dev;
  let torn = Wal.encode (upd ~lsn:3 ~index:0 30) in
  St.append dev (String.sub torn 0 (String.length torn - 3));
  let st1, d1 = R.load dev ~init:[| -1; -2 |] in
  let st2, d2 = R.load dev ~init:[| -1; -2 |] in
  check_bool "first pass repairs" true (d1 = Wal.Torn);
  check_bool "second pass reads a clean log" true (d2 = Wal.Clean);
  check_bool "same values" true (ints_of st1 = ints_of st2);
  check_int "same next lsn" st1.Recovery.next_lsn st2.Recovery.next_lsn;
  check_int "same replay count" st1.Recovery.replayed st2.Recovery.replayed

(* The frame bytes are pinned, for every record kind: the hex header,
   the kind byte, the little-endian words (a multi-byte one and a
   negative one too) and the payload.  The payloads are the marshalled
   42, max_int and [| 1; 2 |]. *)
let golden_frames =
  [
    ( Wal.Update { lsn = 7; pid = 2; index = 3; payload = pay 42 },
      "0000002e 069a191a U\007\000\000\000\000\000\000\000\002\000\000\000\000\
       \000\000\000\003\000\000\000\000\000\000\000\132\149\166\190\000\000\
       \000\001\000\000\000\000\000\000\000\000\000\000\000\000j" );
    ( Wal.Update { lsn = 0x1234_5678; pid = 0; index = -1; payload = pay max_int },
      "00000036 d34a7887 UxV4\018\000\000\000\000\000\000\000\000\000\000\000\000\
       \255\255\255\255\255\255\255\255\132\149\166\190\000\000\000\t\000\000\
       \000\000\000\000\000\000\000\000\000\000\003?\255\255\255\255\255\255\255" );
    ( Wal.Scan_seal { gen = 1; payload = Marshal.to_string [| 1; 2 |] [] },
      "00000020 6b5d8a9f S\001\000\000\000\000\000\000\000\132\149\166\190\
       \000\000\000\003\000\000\000\001\000\000\000\003\000\000\000\003\160AB"
    );
    ( Wal.Checkpoint_begin { gen = 3; next_lsn = 99 },
      "00000011 e5989801 B\003\000\000\000\000\000\000\000c\000\000\000\000\000\
       \000\000" );
    ( Wal.Checkpoint_end { gen = 3 },
      "00000009 8baff750 E\003\000\000\000\000\000\000\000" );
  ]

let test_golden_frames () =
  List.iter
    (fun (r, want) ->
      if Wal.encode r <> want then
        Alcotest.failf "frame of %a: got %S" Wal.pp_record r (Wal.encode r))
    golden_frames;
  (* a seal of m = 65 536 components: its header and first bytes *)
  let big_view = Marshal.to_string (Array.init 65_536 (fun i -> i * 7919)) [] in
  let big = Wal.Scan_seal { gen = 2; payload = big_view } in
  let frame = Wal.encode big in
  check_int "the big seal's frame" 327_720 (String.length frame);
  Alcotest.(check string)
    "the big seal's first bytes"
    "00050016 b223dfb0 S\002\000\000\000\000\000\000\000\132\149\166\190"
    (String.sub frame 0 31);
  let records = List.map fst golden_frames @ [ big ] in
  let d = Wal.decode_all (String.concat "" (List.map Wal.encode records)) in
  check_bool "clean" true (d.Wal.damage = Wal.Clean);
  check_bool "records decode back" true (d.Wal.records = records)

(* The checksum is MurmurHash3_x86_32 with seed 0: its published test
   vectors. *)
let test_checksum_vectors () =
  List.iter
    (fun (s, want) -> check_int (Printf.sprintf "%S" s) want (Wal.checksum s))
    [
      ("", 0);
      ("a", 0x3c2569b2);
      ("hello", 0x248bfa47);
      ("The quick brown fox jumps over the lazy dog", 0x2e4ff723);
    ]

(* A frame around any body, checksummed correctly. *)
let frame body =
  Printf.sprintf "%08x %08x %s" (String.length body) (Wal.checksum body) body

let word v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Bytes.to_string b

(* A checksum only covers the bytes it is given: each body below
   checksums fine and must still be refused, at its own frame, before any
   of it is unmarshalled. *)
let test_checksummed_but_missized () =
  let good = Wal.encode (upd ~lsn:1 ~index:0 10) in
  let update_prefix = "U" ^ word 2 ^ word 0 ^ word 1 in
  let seal_prefix = "S" ^ word 1 in
  let p = pay 20 in
  List.iter
    (fun (what, body) ->
      let d = Wal.decode_all (good ^ frame body ^ good) in
      check_bool (what ^ ": corrupt") true (d.Wal.damage = Wal.Corrupt);
      check_int (what ^ ": only the good frame decodes") 1
        (List.length d.Wal.records);
      check_int (what ^ ": good_bytes") (String.length good) d.Wal.good_bytes)
    [
      ("empty body", "");
      ("begin with a trailing byte", "B" ^ word 1 ^ word 2 ^ "\000");
      ("begin one byte short", "B" ^ word 1 ^ String.sub (word 2) 0 7);
      ("end with a trailing byte", "E" ^ word 1 ^ "\000");
      ("update shorter than its prefix", String.sub update_prefix 0 24);
      ("update with no payload", update_prefix);
      ("unknown kind", "X" ^ word 1 ^ word 2);
      ("payload with a trailing byte", update_prefix ^ p ^ "\000");
      ("payload one byte short",
        update_prefix ^ String.sub p 0 (String.length p - 1));
      ("two payloads", update_prefix ^ p ^ p);
      ("payload not marshalled", update_prefix ^ "not a marshalled value");
      ("seal payload with a trailing byte", seal_prefix ^ pay 7 ^ "\000");
      ("seal payload not marshalled", seal_prefix ^ String.make 40 '\000');
    ]

(* Flip every bit of one frame, in front of a good one: each flip must be
   caught at the flipped frame (a longer length reads as a torn frame,
   anything else as corruption), never decoded as some other record. *)
let test_bit_flips () =
  let tail = Wal.encode (upd ~lsn:9 ~index:1 5) in
  List.iter
    (fun r ->
      let f = Wal.encode r in
      for bit = 0 to (8 * String.length f) - 1 do
        let b = Bytes.of_string f in
        let i = bit / 8 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
        let d = Wal.decode_all (Bytes.to_string b ^ tail) in
        if d.Wal.records <> [] || d.Wal.good_bytes <> 0
           || d.Wal.damage = Wal.Clean
        then
          Alcotest.failf "%a: flipping bit %d decodes %d records" Wal.pp_record
            r bit (List.length d.Wal.records)
      done)
    [
      Wal.Update { lsn = 7; pid = 2; index = 3; payload = pay 42 };
      Wal.Checkpoint_begin { gen = 3; next_lsn = 99 };
    ]

(* ---- what a recovery allocates ----

   Recovery folds over the device's own bytes, allocates nothing per
   frame and unmarshals only the live suffix: on a clean log of 100k
   updates with a seal near its end, it must allocate well under a word
   per byte of log, and no major block near the log's size (a copy of
   the log would be one).  Gc counts are exact in a single domain. *)

module StMc = Persist.Storage.Mc
module RMc = Persist.Recovery.Make (Persist.Storage.Mc)

let test_load_allocates_little () =
  let m = 1024 and updates = 100_000 and suffix = 100 in
  let dev = StMc.create ~name:"big" in
  let append lsn =
    StMc.append dev (Wal.encode (upd ~lsn ~index:(lsn mod m) lsn))
  in
  for lsn = 1 to updates do
    append lsn
  done;
  (* The triple is appended by hand: a checkpoint would discard the
     updates before it, and this log must be large. *)
  let sealed = Array.init m (fun i -> -i) in
  List.iter
    (fun r -> StMc.append dev (Wal.encode r))
    [
      Wal.Checkpoint_begin { gen = 1; next_lsn = updates + 1 };
      Wal.Scan_seal { gen = 1; payload = Marshal.to_string sealed [] };
      Wal.Checkpoint_end { gen = 1 };
    ];
  for lsn = updates + 1 to updates + suffix do
    append lsn
  done;
  let log_words = float_of_int (StMc.size dev / (Sys.word_size / 8)) in
  let minor0 = Gc.minor_words () and s0 = Gc.quick_stat () in
  let st, damage = RMc.load dev ~init:(Array.make m 0) in
  let minor1 = Gc.minor_words () and s1 = Gc.quick_stat () in
  let major = s1.Gc.major_words -. s0.Gc.major_words in
  let promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words in
  let allocated = minor1 -. minor0 +. major -. promoted in
  let want = Array.copy sealed in
  for lsn = updates + 1 to updates + suffix do
    want.(lsn mod m) <- lsn
  done;
  check_bool "clean" true (damage = Wal.Clean);
  check_bool "the seal plus the suffix" true (ints_of st = want);
  check_int "only the suffix is replayed" suffix st.Recovery.replayed;
  check_int "from the seal" 1 st.Recovery.checkpoint_gen;
  check_int "next lsn" (updates + suffix + 1) st.Recovery.next_lsn;
  let bytes = float_of_int (StMc.size dev) in
  if allocated > bytes /. 16. then
    Alcotest.failf "recovery allocated %.0f words over a %.0f-byte log"
      allocated bytes;
  if major > log_words /. 2. then
    Alcotest.failf "recovery allocated %.0f major words; the log is %.0f"
      major log_words

(* ---- what a commit allocates ----

   A commit marshals its value into the object's scratch and allocates
   only the frame it appends, the lock's intent and the lock's release:
   17 minor words for an int value on a 64-bit host; a record and a
   payload string built on the way would add 10.  The inner object is a
   plain array, so the count is the commit's own. *)

module Plain_inner = struct
  type 'a t = 'a array

  type 'a handle = 'a array

  let name = "plain"

  let create ~n:_ init = Array.copy init

  let handle t ~pid:_ = t

  let update h i v = h.(i) <- v

  let scan h idxs = Array.map (fun i -> h.(i)) idxs

  let read h i = h.(i)

  let last_scan_collects _ = 1
end

module DMc = Persist.Durable.Make (Mem.Atomic) (Plain_inner) (StMc)

let test_commit_allocates_little () =
  let m = 64 and commits = 10_000 and words_per_commit = 20. in
  let t = DMc.create ~n:1 (Array.make m 0) in
  let h = DMc.handle t ~pid:0 in
  let value c = c * 7919 in
  let minor0 = Gc.minor_words () in
  for c = 1 to commits do
    DMc.update h (c mod m) (value c)
  done;
  let per_commit = (Gc.minor_words () -. minor0) /. float_of_int commits in
  let st, damage = RMc.load (DMc.storage t) ~init:(Array.make m 0) in
  check_bool "clean" true (damage = Wal.Clean);
  check_int "every commit replays" commits st.Recovery.replayed;
  check_bool "the last values" true
    (ints_of st
    = Array.init m (fun i -> value (commits - ((commits - i) mod m))));
  if per_commit > words_per_commit then
    Alcotest.failf "a commit allocated %.1f minor words, over %.0f" per_commit
      words_per_commit

(* ---- cell names ----

   Real memory formats no cell names, but the simulator still renders
   them: traces and name-based nemeses match cells by these labels. *)

let object_names (module S : Snapshot.S) ~m =
  let t = S.create ~n:1 (Array.make m 0) in
  let body () =
    let h = S.handle t ~pid:0 in
    for i = 0 to m - 1 do
      S.update h i (i + 1)
    done;
    ignore (S.scan h (Array.init m Fun.id))
  in
  let res =
    Sim.run ~record_trace:true ~sched:(Scheduler.round_robin ()) [| body |]
  in
  List.map (fun (_, name, _) -> name) (Trace.steps_by_object res.Sim.trace)

let test_sim_cell_names () =
  let names = object_names (module Sim_fig3) ~m:4 in
  List.iter
    (fun n ->
      check_bool (n ^ " in the fig3 trace") true (List.mem n names))
    [ "R[0]"; "R[1]"; "R[2]"; "R[3]" ];
  let names = object_names (module Sim_sharded_fig3) ~m:8 in
  List.iter
    (fun n ->
      check_bool (n ^ " in the sharded trace") true (List.mem n names))
    [ "R[0]"; "R[1]"; "H"; "C" ]

(* ---- what a checkpoint seals ----

   The durable store over real atomics and the simulated device, driven
   outside any simulator run (device operations are free there). *)

module DA = Persist.Durable.Make (Mem.Atomic) (Mc_fig3) (Persist.Storage.Sim)

let test_checkpoint_seals_committed () =
  St.reset ();
  let m = 16 in
  let init = Array.init m (fun i -> -i) in
  let t = DA.create_with ~n:1 init in
  let h = DA.handle t ~pid:0 in
  let rng = Random.State.make [| 42 |] in
  let shadow = Array.copy init and writes = Array.make m 0 in
  let write () =
    let i = Random.State.int rng m and v = Random.State.int rng 1_000_000 in
    DA.update h i v;
    shadow.(i) <- v;
    writes.(i) <- writes.(i) + 1
  in
  for _ = 1 to 40 do
    write ()
  done;
  let sealed = Array.copy shadow in
  (* Each of the 16 components has a stripe of its own, whose lsns count
     its commits; the checkpoint seals the largest next lsn. *)
  let next_lsn = 1 + Array.fold_left max 0 writes in
  DA.checkpoint_now h;
  let dev = DA.storage t in
  let triple_end = St.size dev in
  for _ = 1 to 25 do
    write ()
  done;
  let all = Array.init m Fun.id in
  let live = DA.scan h all in
  check_bool "the live store is the shadow" true (live = shadow);
  let st, _ = R.load dev ~init in
  check_bool "whole device recovers the live store" true
    (ints_of st = live);
  check_int "the suffix is replayed" 25 st.Recovery.replayed;
  check_int "from the checkpoint" 1 st.Recovery.checkpoint_gen;
  let r = DA.recover dev ~n:1 init in
  check_bool "recover rebuilds the live store" true
    (DA.scan (DA.handle r ~pid:0) all = live);
  St.truncate dev triple_end;
  let st, _ = R.load dev ~init in
  check_bool "the triple holds exactly the first updates" true
    (ints_of st = sealed);
  check_int "nothing replayed past the triple" 0 st.Recovery.replayed;
  check_int "generation 1" 1 st.Recovery.checkpoint_gen;
  check_int "lsns restart past every stripe's" next_lsn st.Recovery.next_lsn

(* ---- discarding a log's prefix ---- *)

let contents (type d) (module Dev : Persist.Storage.S with type t = d)
    (dev : d) =
  Dev.with_contents dev (fun log n -> String.sub log 0 n)

let refused f =
  match f () with () -> false | exception Invalid_argument _ -> true

let test_sim_discard_refuses_unsynced () =
  St.reset ();
  let dev = St.create ~name:"d" in
  St.append dev "aaaa";
  St.sync dev;
  St.append dev "bbbbbbbb";
  check_bool "past the synced prefix" true
    (refused (fun () -> St.discard_prefix dev 5));
  check_bool "negative" true (refused (fun () -> St.discard_prefix dev (-1)));
  check_int "nothing dropped" 12 (St.size dev);
  St.discard_prefix dev 4;
  Alcotest.(check string) "the suffix" "bbbbbbbb" (contents (module St) dev);
  check_bool "nothing synced is left" true
    (refused (fun () -> St.discard_prefix dev 1))

(* A blackout after a discard tears the unsynced tail exactly as it would
   have before: the synced prefix moved with the bytes.  Power is cut at
   every step of a short program; the torn policy keeps half of the
   unsynced bytes. *)
let test_sim_discard_then_blackout () =
  let after_loss at_clock =
    St.reset ();
    let dev = St.create ~name:"d" in
    let body () =
      St.append dev "aaaa";
      St.sync dev;
      St.append dev "bbbbbbbb";
      St.discard_prefix dev 4;
      St.append dev "cccc"
    in
    let base = Scheduler.round_robin () in
    let sched =
      match at_clock with
      | None -> base
      | Some c -> Scheduler.power_loss_at ~at_clock:c base
    in
    ignore (Sim.run ~sched [| body |]);
    contents (module St) dev
  in
  Alcotest.(check string) "no blackout" "bbbbbbbbcccc" (after_loss None);
  Alcotest.(check (list string))
    "a blackout before each step"
    [ ""; "aa"; "aaaa"; "aaaabbbb"; "bbbb" ]
    (List.map (fun c -> after_loss (Some c)) [ 0; 1; 2; 3; 4 ])

let test_mc_discard () =
  let module Mc = Persist.Storage.Mc in
  let dev = Mc.create ~name:"d" in
  Mc.append dev "aaaa";
  Mc.append dev "bbbbbbbb";
  check_bool "past the end" true (refused (fun () -> Mc.discard_prefix dev 13));
  Mc.discard_prefix dev 4;
  Mc.append dev "cc";
  Alcotest.(check string) "the suffix, then appends" "bbbbbbbbcc"
    (contents (module Mc) dev);
  Mc.discard_prefix dev 10;
  check_int "all of it" 0 (Mc.size dev)

(* ---- the log a checkpoint leaves ----

   A checkpoint discards the log before its triple, so however long the
   store runs, its device holds at most one triple and the commits since
   it.  Driven outside any simulator run, on both devices. *)

module Interval_on (Dev : Persist.Storage.S) = struct
  module D = Persist.Durable.Make (Mem.Atomic) (Mc_fig3) (Dev)
  module W = Persist.Wal.Make (Dev)
  module R = Persist.Recovery.Make (Dev)

  let run () =
    let m = 16 and every = 8 in
    let config = { D.default_config with D.checkpoint_every = every } in
    let init = Array.init m (fun i -> -i) in
    let t = D.create_with ~config ~n:1 init in
    let h = D.handle t ~pid:0 in
    let rng = Random.State.make [| 7 |] in
    let shadow = Array.copy init in
    for c = 1 to (10 * every) + (every / 2) do
      let i = Random.State.int rng m and v = Random.State.int rng 1_000_000 in
      D.update h i v;
      shadow.(i) <- v;
      let d = W.read_all (D.storage t) in
      let updates, others =
        List.partition
          (function Wal.Update _ -> true | _ -> false)
          d.Wal.records
      in
      let triple =
        match d.Wal.records with
        | Wal.Checkpoint_begin _ :: Wal.Scan_seal _ :: Wal.Checkpoint_end _ :: _
          ->
          true
        | _ -> false
      in
      if
        List.length updates > every
        || (c >= every && not (triple && List.length others = 3))
        || (c < every && others <> [])
      then
        Alcotest.failf "after %d commits the log holds %d updates and %d others"
          c (List.length updates) (List.length others);
      let st, damage = R.load (D.storage t) ~init in
      check_bool "clean" true (damage = Wal.Clean);
      if ints_of st <> shadow then
        Alcotest.failf "after %d commits recovery is not the shadow" c
    done;
    check_int "ten checkpoints" 10 (D.generation t);
    let r = D.recover ~config (D.storage t) ~n:1 init in
    check_bool "recover rebuilds the shadow" true
      (D.scan (D.handle r ~pid:0) (Array.init m Fun.id) = shadow)
end

module Interval_sim = Interval_on (Persist.Storage.Sim)
module Interval_mc = Interval_on (Persist.Storage.Mc)

let test_log_holds_one_interval () =
  St.reset ();
  Metrics.(reset Durable.group);
  Interval_sim.run ();
  Interval_mc.run ();
  check_bool "checkpoints counted the bytes they discarded" true
    (Metrics.(get Durable.discarded_bytes) > 0)

(* ---- two domains on one store ----

   Two domains commit to overlapping components of one store over the
   multicore device, and each seals a checkpoint every 3 of its commits,
   so seals race the other domain's commits.  After the join, recovery
   from the device alone must equal the live store, and each component
   must hold the last write of a domain that wrote it: domain 0 alone
   writes components 0..3, domain 1 alone 12..15, both 4..11. *)

module D2 = Persist.Durable.Make (Mem.Atomic) (Mc_fig3) (StMc)

let test_two_domains () =
  let m = 16 and commits = 3000 in
  let config = { D2.default_config with D2.checkpoint_every = 3 } in
  let init = Array.make m (-1) in
  let t = D2.create_with ~config ~n:2 init in
  let component d k = (4 * d) + (k mod 12) and value d k = (2 * k) + d in
  let writer d () =
    let h = D2.handle t ~pid:d in
    for k = 0 to commits - 1 do
      D2.update h (component d k) (value d k)
    done
  in
  List.iter Domain.join (List.init 2 (fun d -> Domain.spawn (writer d)));
  let last = Array.make_matrix 2 m (-1) in
  for d = 0 to 1 do
    for k = 0 to commits - 1 do
      last.(d).(component d k) <- value d k
    done
  done;
  let all = Array.init m Fun.id in
  let live = D2.scan (D2.handle t ~pid:0) all in
  Array.iteri
    (fun i v ->
      let by d = last.(d).(i) >= 0 && v = last.(d).(i) in
      if not (by 0 || by 1) then
        Alcotest.failf "component %d holds %d, no domain's last write" i v;
      if (i < 4 && not (by 0)) || (i >= 12 && not (by 1)) then
        Alcotest.failf "component %d lost its only writer's last write" i)
    live;
  check_bool "seals ran" true (D2.generation t > 0);
  let st, damage = RMc.load (D2.storage t) ~init in
  check_bool "clean" true (damage = Wal.Clean);
  check_bool "the device recovers the live store" true (ints_of st = live);
  let r = D2.recover ~config (D2.storage t) ~n:1 init in
  check_bool "recover rebuilds the live store" true
    (D2.scan (D2.handle r ~pid:0) all = live)

(* ---- the durable snapshot under the simulator ----

   The workload is the durable campaign scenario itself (same index and
   value formulas, same recovery bodies): the committed E18 witness
   schedule was shrunk against that program, and replay is only
   meaningful against the same program. *)

let workload =
  { Scenario.m = 4; r = 4; updaters = 1; updates = 3; scanners = 2; scans = 6 }

let run_workload ?(config = D.default_config) ~sched () =
  let x =
    Campaign.execute
      (Scenario.durable ~config ~power:Scenario.No_power_loss workload)
      ~sched
  in
  (x.Campaign.result, x.Campaign.violations)

(* One clean baseline to learn the schedule length, then a blackout at
   every schedule point — the simulate campaign's sweep in miniature. *)
let power_loss_sweep ?config () =
  Metrics.(reset Durable.group);
  let base seed = Scheduler.random ~seed () in
  let res0, viols0 = run_workload ?config ~sched:(base 7) () in
  check_bool "baseline linearizable" true (viols0 = []);
  for c = 1 to res0.Sim.clock - 1 do
    let sched = Scheduler.power_loss_at ~at_clock:c (base 7) in
    let _, viols = run_workload ?config ~sched () in
    if viols <> [] then
      Alcotest.failf "power loss at clock %d: %d violations" c
        (List.length viols)
  done;
  check_bool "blackouts fired" true (Metrics.(get Durable.power_losses) > 0);
  check_bool "recoveries ran" true (Metrics.(get Durable.recoveries) > 0)

let test_mini_power_loss_sweep () = power_loss_sweep ()

(* A checkpoint every 2 commits: the sweep cuts power at each of a
   checkpoint's steps, its discard included, and at the commits after
   the discard. *)
let test_sweep_with_checkpoints () =
  power_loss_sweep
    ~config:{ D.default_config with D.checkpoint_every = 2 }
    ();
  check_bool "checkpoints sealed" true (Metrics.(get Durable.checkpoints) > 0);
  check_bool "checkpoints discarded the log before them" true
    (Metrics.(get Durable.discarded_bytes) > 0)

let test_storm_with_checkpoints () =
  Metrics.(reset Durable.group);
  let config = { D.default_config with D.checkpoint_every = 2 } in
  for seed = 0 to 19 do
    let sched =
      Scheduler.power_storm ~seed ~rate:0.02 (Scheduler.random ~seed ())
    in
    let _, viols = run_workload ~config ~sched () in
    if viols <> [] then
      Alcotest.failf "seed %d: %d violations" seed (List.length viols)
  done;
  check_bool "checkpoints sealed" true (Metrics.(get Durable.checkpoints) > 0);
  check_bool "recoveries ran" true (Metrics.(get Durable.recoveries) > 0)

let test_plain_crash_resumes_intent () =
  (* a crash–restart without any power loss: the object survives in
     memory, so recovery must resume the published intent, never rebuild *)
  Metrics.(reset Durable.group);
  for seed = 0 to 19 do
    let sched = Scheduler.crash_storm ~seed (Scheduler.random ~seed ()) in
    let _, viols = run_workload ~sched () in
    if viols <> [] then
      Alcotest.failf "seed %d: %d violations" seed (List.length viols)
  done;
  check_int "no blackout, no rebuild" 0 Metrics.(get Durable.recoveries)

(* ---- E18: the committed ddmin-shrunk witness ---- *)

(* `dune runtest` runs from the test directory inside _build (where the
   dune deps clause stages the schedule one level up); `dune exec` runs
   from the workspace root. *)
let e18_witness =
  if Sys.file_exists "schedules/e18-durable-latelog.sched" then
    "schedules/e18-durable-latelog.sched"
  else "../schedules/e18-durable-latelog.sched"

let replay_witness ~config =
  let decisions = Shrink.load e18_witness in
  check_bool "witness committed and shrunk" true
    (decisions <> [] && List.length decisions <= 80);
  let sched =
    Scheduler.replay_decisions ~lenient:true
      ~fallback:(Scheduler.round_robin ()) decisions
  in
  snd (run_workload ~config ~sched ())

let test_e18_witness_kills_late_log () =
  let viols =
    replay_witness ~config:{ D.default_config with D.write_ahead = false }
  in
  check_bool "late-log mode loses an observed value" true (viols <> [])

let test_e18_witness_clean_on_write_ahead () =
  let viols = replay_witness ~config:D.default_config in
  check_bool "write-ahead mode survives the same blackout" true (viols = [])

let () =
  Alcotest.run "persist"
    [
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "empty log" `Quick test_empty_log;
          Alcotest.test_case "torn tail" `Quick test_torn_tail;
          Alcotest.test_case "corrupt mid-log" `Quick test_corrupt_mid_log;
          Alcotest.test_case "golden frames" `Quick test_golden_frames;
          Alcotest.test_case "checksum vectors" `Quick test_checksum_vectors;
          Alcotest.test_case "checksummed but missized body" `Quick
            test_checksummed_but_missized;
          Alcotest.test_case "every bit flip is caught" `Quick test_bit_flips;
        ] );
      ( "storage",
        [
          Alcotest.test_case "Sim refuses to discard unsynced bytes" `Quick
            test_sim_discard_refuses_unsynced;
          Alcotest.test_case "a blackout after a discard" `Quick
            test_sim_discard_then_blackout;
          Alcotest.test_case "Mc discards a prefix in place" `Quick
            test_mc_discard;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "begin without end" `Quick
            test_begin_without_end;
          Alcotest.test_case "duplicate lsn dedup" `Quick
            test_duplicate_lsn_dedup;
          Alcotest.test_case "a stripe's lower lsn after another's higher"
            `Quick test_interleaved_stripes;
          Alcotest.test_case "a duplicate across another stripe's commit"
            `Quick test_duplicate_across_stripes;
          Alcotest.test_case "one pass matches the two-walk reference" `Quick
            test_replay_matches_reference;
          Alcotest.test_case "checkpoint roundtrip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "checkpoint seals the committed state" `Quick
            test_checkpoint_seals_committed;
          Alcotest.test_case "the log holds one triple and one interval"
            `Quick test_log_holds_one_interval;
          Alcotest.test_case "double recovery idempotent" `Quick
            test_double_recovery_idempotent;
          Alcotest.test_case "load allocates little" `Quick
            test_load_allocates_little;
          Alcotest.test_case "commit allocates little" `Quick
            test_commit_allocates_little;
          Alcotest.test_case "simulated cells keep their names" `Quick
            test_sim_cell_names;
          Alcotest.test_case "two domains commit and seal on Mc" `Quick
            test_two_domains;
        ] );
      ( "power-loss",
        [
          Alcotest.test_case "mini sweep: blackout at every point" `Quick
            test_mini_power_loss_sweep;
          Alcotest.test_case "mini sweep with a checkpoint every 2 commits"
            `Quick test_sweep_with_checkpoints;
          Alcotest.test_case "storm with checkpoints (20 seeds)" `Quick
            test_storm_with_checkpoints;
          Alcotest.test_case "plain crash resumes intent (20 seeds)" `Quick
            test_plain_crash_resumes_intent;
          Alcotest.test_case "e18 witness kills late-log" `Quick
            test_e18_witness_kills_late_log;
          Alcotest.test_case "e18 witness clean on write-ahead" `Quick
            test_e18_witness_clean_on_write_ahead;
        ] );
    ]
