(* Tests of the durability layer (lib/persist): WAL framing edge cases
   (golden frame bytes, the checksum's test vectors, empty log, torn
   tail, checksum corruption mid-log, checksummed bodies of the wrong
   shape, every single-bit flip of a frame, checkpoint-begin without
   end, duplicate-lsn dedup, double-recovery idempotence), the
   one-pass replay against the two-walk reference on random logs, what a
   checkpoint seals, the checkpoint triple, and the durable snapshot
   under simulated power losses — a mini exhaustive sweep (a blackout at
   every schedule point must recover to a durably-linearizable state),
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
  check_int "next lsn" 3 st.Recovery.next_lsn

(* ---- replay equivalence ----

   The two-walk replay recovery used before it became one fold: find the
   last complete triple, then replay the suffix after it, then raise the
   lsn horizon over the whole log.  Kept here only as the reference the
   fold must agree with. *)
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

(* A random log over [m] components: monotone, duplicate and stale lsns;
   complete, partial and out-of-order triples; and truncations, after
   which generation numbers are drawn again from below. *)
let random_log ~m rng =
  let int n = Random.State.int rng n in
  let log = ref [] and lsn = ref 0 and gen = ref 0 in
  let emit r = log := r :: !log in
  let update lsn = emit (upd ~lsn ~index:(int m) (int 1000)) in
  let seal gen =
    let view = Array.init m (fun _ -> int 1000) in
    Wal.Scan_seal { gen; payload = Marshal.to_string view [] }
  in
  for _ = 1 to int 40 do
    match int 12 with
    | 0 | 1 | 2 | 3 ->
      incr lsn;
      update !lsn
    | 4 -> update !lsn
    | 5 -> update (int (!lsn + 1))
    | 6 | 7 ->
      incr gen;
      emit (Wal.Checkpoint_begin { gen = !gen; next_lsn = !lsn + 1 });
      emit (seal !gen);
      emit (Wal.Checkpoint_end { gen = !gen })
    | 8 -> (
      incr gen;
      let b = Wal.Checkpoint_begin { gen = !gen; next_lsn = int (!lsn + 2) }
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
  C.write dev ~gen:1 ~next_lsn:2 ~payload:(Marshal.to_string [| 10; -2 |] []);
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

let test_has_lsn () =
  St.reset ();
  let dev = St.create ~name:"t" in
  WIO.append dev (upd ~lsn:1 ~index:0 10);
  WIO.append dev (upd ~lsn:3 ~index:1 20);
  check_bool "present" true (WIO.has_lsn dev 1);
  check_bool "present" true (WIO.has_lsn dev 3);
  check_bool "absent" false (WIO.has_lsn dev 2)

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
  let shadow = Array.copy init in
  let write () =
    let i = Random.State.int rng m and v = Random.State.int rng 1_000_000 in
    DA.update h i v;
    shadow.(i) <- v
  in
  for _ = 1 to 40 do
    write ()
  done;
  let sealed = Array.copy shadow in
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
  check_int "lsns restart past the sealed ones" 41 st.Recovery.next_lsn

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

let test_mini_power_loss_sweep () =
  Metrics.(reset Durable.group);
  let base seed = Scheduler.random ~seed () in
  (* one clean baseline to learn the schedule length, then a blackout at
     every schedule point — the simulate campaign's sweep in miniature *)
  let res0, viols0 = run_workload ~sched:(base 7) () in
  check_bool "baseline linearizable" true (viols0 = []);
  for c = 1 to res0.Sim.clock - 1 do
    let sched = Scheduler.power_loss_at ~at_clock:c (base 7) in
    let _, viols = run_workload ~sched () in
    if viols <> [] then
      Alcotest.failf "power loss at clock %d: %d violations" c
        (List.length viols)
  done;
  check_bool "blackouts fired" true (Metrics.(get Durable.power_losses) > 0);
  check_bool "recoveries ran" true (Metrics.(get Durable.recoveries) > 0)

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
          Alcotest.test_case "has_lsn" `Quick test_has_lsn;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "begin without end" `Quick
            test_begin_without_end;
          Alcotest.test_case "duplicate lsn dedup" `Quick
            test_duplicate_lsn_dedup;
          Alcotest.test_case "one pass matches the two-walk reference" `Quick
            test_replay_matches_reference;
          Alcotest.test_case "checkpoint roundtrip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "checkpoint seals the committed state" `Quick
            test_checkpoint_seals_committed;
          Alcotest.test_case "double recovery idempotent" `Quick
            test_double_recovery_idempotent;
        ] );
      ( "power-loss",
        [
          Alcotest.test_case "mini sweep: blackout at every point" `Quick
            test_mini_power_loss_sweep;
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
