(* Checksummed, length-prefixed WAL records (docs/MODEL.md §13).

   Frame layout: an 18-byte ASCII header — "%08x %08x " of (body length,
   checksum of the body) — followed by a binary body: one kind byte, the
   kind's integers as 8-byte little-endian words, and for [Update] and
   [Scan_seal] the payload bytes, running to the end of the body:

     'U' lsn pid index payload     'B' gen next_lsn
     'S' gen payload               'E' gen

   One writer, [put_frame], finishes every frame around a payload that
   is already in place.  [encode] copies a record's payload, which its
   caller marshalled, into a fresh frame.  A commit's path,
   [Make.append_update], and a checkpoint's seal, [Make.append_seal],
   build no record and no payload string: they marshal the value
   straight into a scratch buffer, frame it there and copy the frame out
   once.  The bytes are the same either way.
   [fold] checks frames in place, without [Marshal] and without
   allocating per frame: it hands each good frame to its step as the
   offset of its body, and [Frame] reads the fields there; only
   [decode_all] and [read_all] build records.  It stops at the first
   damaged frame and reports how many bytes were good: a torn tail
   (incomplete header or body — the shape a power loss leaves) and an
   in-place corruption are distinguished so recovery can account for them
   separately.  Corruption is a header that is not hex, a checksum
   mismatch, an unknown kind byte, a body too short or too long for its
   kind, or a payload that is not exactly one marshalled value.  That
   last check is what lets recovery unmarshal payloads: no byte reaches
   [Marshal.from_string] unless it passed the checksum and an exact
   [Marshal.total_size] check. *)

type record =
  | Update of { lsn : int; pid : int; index : int; payload : string }
      (** one component write, in commit order: [lsn]s are assigned under
          the component's stripe of the commit lock, so a component's log
          order = its apply order by construction *)
  | Scan_seal of { gen : int; payload : string }
      (** a sealed full-scan view (marshalled value array), the body of a
          checkpoint *)
  | Checkpoint_begin of { gen : int; next_lsn : int }
      (** opens checkpoint [gen]; the sealed view includes exactly the
          commits with lsn < [next_lsn] *)
  | Checkpoint_end of { gen : int }
      (** seals checkpoint [gen]: only a begin/seal/end triple counts *)

type damage = Clean | Torn | Corrupt

type decoded = {
  records : record list;  (** the valid prefix, in log order *)
  good_bytes : int;  (** offset of the first damaged byte; log size when
                         clean *)
  damage : damage;
}

(* Little-endian words.  The stdlib's [String.get_int32_le] and friends
   are out-of-line calls that box their result; the primitives below
   stay unboxed when inlined into integer code.  The [u] loads check no
   bounds: [checksum_sub] checks its whole range once instead. *)
external get64_ne : string -> int -> int64 = "%caml_string_get64"

external get32u_ne : string -> int -> int32 = "%caml_string_get32u"

external get64u_ne : string -> int -> int64 = "%caml_string_get64u"

external set64_ne : bytes -> int -> int64 -> unit = "%caml_bytes_set64"

external swap32 : int32 -> int32 = "%bswap_int32"

external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get32u_le s i =
  if Sys.big_endian then swap32 (get32u_ne s i) else get32u_ne s i

let[@inline] get64_le s i =
  if Sys.big_endian then swap64 (get64_ne s i) else get64_ne s i

let[@inline] get64u_le s i =
  if Sys.big_endian then swap64 (get64u_ne s i) else get64u_ne s i

let[@inline] set64_le b i v =
  if Sys.big_endian then set64_ne b i (swap64 v) else set64_ne b i v

let mask32 = 0xFFFF_FFFF

let rotl32 x r = ((x lsl r) lor (x lsr (32 - r))) land mask32

(* MurmurHash3_x86_32 with seed 0.  [scramble] is a bijection of the
   word (odd multiplies and a rotate).  [mix], the block step, is for a
   fixed word a bijection of the state (xor, rotate, multiply by 5, add),
   and for a fixed state an injection of the word; so is the tail's bare
   xor, and the finaliser is a bijection.  Two bodies of one length that
   differ only inside one 4-byte word therefore always differ at the
   end. *)
let scramble w = rotl32 (w * 0xcc9e2d51 land mask32) 15 * 0x1b873593 land mask32

(* [mix h w] with [scramble] inlined, for the block loop.  It masks only
   where a rotate needs the top bits clear: the low 32 bits of a sum or
   a product depend only on the low 32 bits of its operands. *)
let[@inline] mix h w =
  let k = w * 0xcc9e2d51 in
  let k = ((k lsl 15) lor ((k land mask32) lsr 17)) * 0x1b873593 in
  let h = (h lxor k) land mask32 in
  (((h lsl 13) lor (h lsr 19)) * 5 + 0xe6546b64) land mask32

let fmix h =
  let h = h lxor (h lsr 16) * 0x85ebca6b land mask32 in
  let h = h lxor (h lsr 13) * 0xc2b2ae35 land mask32 in
  h lxor (h lsr 16)

(* Over [s.[off] .. s.[off + len - 1]], 4-byte little-endian words,
   loaded two at a time: an 8-byte load is the word at [i] in its low
   half and the word at [i + 4] in its high half. *)
let checksum_sub s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Wal.checksum_sub";
  let h = ref 0 and i = ref off in
  let pairs_end = off + (len land lnot 7) in
  while !i < pairs_end do
    let x = get64u_le s !i in
    let lo = Int64.to_int x land mask32 in
    let hi = Int64.to_int (Int64.shift_right_logical x 32) in
    h := mix (mix !h lo) hi;
    i := !i + 8
  done;
  if len land 4 <> 0 then begin
    h := mix !h (Int32.to_int (get32u_le s !i) land mask32);
    i := !i + 4
  end;
  if !i < off + len then begin
    let w = ref 0 in
    for j = off + len - 1 downto !i do
      w := (!w lsl 8) lor Char.code (String.unsafe_get s j)
    done;
    h := !h lxor scramble !w
  end;
  fmix (!h lxor len)

let checksum s = checksum_sub s 0 (String.length s)

let header_len = 18

let hex_digits = "0123456789abcdef"

(* [v] as 8 lowercase hex digits at [b.[off]]: the [%08x] of the header. *)
let put_hex8 b off v =
  if off < 0 || off > Bytes.length b - 8 then invalid_arg "Wal.put_hex8";
  for i = 0 to 7 do
    Bytes.unsafe_set b (off + i)
      (String.unsafe_get hex_digits ((v lsr (28 - (4 * i))) land 0xf))
  done

let put_word b off v = set64_le b off (Int64.of_int v)

let word s off = Int64.to_int (get64_le s off)

(* The body's length without the payload, by kind byte: the kind byte
   and the kind's words. *)
let fixed_len = function 'U' -> 25 | 'B' -> 17 | _ -> 9

(* The body's length, refused past what the header's 8 hex digits can
   say. *)
let body_len kind plen =
  let len = fixed_len kind + plen in
  if len > mask32 then invalid_arg "Wal.encode: record too large";
  len

(* The one frame writer, for [encode] and for the value frames of
   [Make.append_update] and [Make.append_seal] alike.  [b] already holds
   the body's payload, [len - fixed_len kind] bytes at
   [header_len + fixed_len kind]; this writes the kind byte and the
   kind's words in front of it ([w2] and [w3] only where the kind has
   them), then the header over the whole body. *)
let put_frame b kind w1 w2 w3 len =
  let at = header_len in
  let fixed = fixed_len kind in
  Bytes.set b at kind;
  put_word b (at + 1) w1;
  if fixed > 9 then put_word b (at + 9) w2;
  if fixed > 17 then put_word b (at + 17) w3;
  put_hex8 b 0 len;
  Bytes.set b 8 ' ';
  put_hex8 b 9 (checksum_sub (Bytes.unsafe_to_string b) at len);
  Bytes.set b 17 ' '

(* One allocation for the frame: the payload copied in, then the rest
   written around it. *)
let frame kind w1 w2 w3 payload =
  let plen = String.length payload in
  let len = body_len kind plen in
  let b = Bytes.create (header_len + len) in
  Bytes.blit_string payload 0 b (header_len + len - plen) plen;
  put_frame b kind w1 w2 w3 len;
  Bytes.unsafe_to_string b

let encode = function
  | Update { lsn; pid; index; payload } -> frame 'U' lsn pid index payload
  | Scan_seal { gen; payload } -> frame 'S' gen 0 0 payload
  | Checkpoint_begin { gen; next_lsn } -> frame 'B' gen next_lsn 0 ""
  | Checkpoint_end { gen } -> frame 'E' gen 0 0 ""

(* A commit's or a checkpoint's frame, built without a record or a
   payload string: the value is marshalled straight into the scratch,
   after the room for the header and the kind's fixed fields, and the
   frame is written around it there and copied out once.
   [Marshal.to_buffer] fails on a buffer too small for the value; the
   scratch then doubles and the value is marshalled again. *)
type scratch = { mutable buf : Bytes.t }

let scratch () = { buf = Bytes.create 256 }

let rec marshal_payload sc at v =
  let room = Bytes.length sc.buf - at in
  match Marshal.to_buffer sc.buf at room v [] with
  | plen -> plen
  | exception Failure _ ->
    sc.buf <- Bytes.create (2 * Bytes.length sc.buf);
    marshal_payload sc at v

let value_frame sc kind w1 w2 w3 v =
  let plen = marshal_payload sc (header_len + fixed_len kind) v in
  let len = body_len kind plen in
  put_frame sc.buf kind w1 w2 w3 len;
  Bytes.sub_string sc.buf 0 (header_len + len)

(* Each byte's value as a hex digit, and 16 for a byte that is not one
   of [0-9a-f]. *)
let hex_value =
  String.init 256 (fun c ->
      match Char.chr c with
      | '0' .. '9' -> Char.chr (c - 48)
      | 'a' .. 'f' -> Char.chr (c - 87)
      | _ -> '\016')

(* The 8 hex digits at [s.[off]], a field of the header, or -1 if one is
   not [0-9a-f].  A table lookup per digit: the table has a byte for
   every char code. *)
let hex8 s off =
  let acc = ref 0 and bad = ref 0 in
  for i = off to off + 7 do
    let d = Char.code (String.unsafe_get hex_value (Char.code s.[i])) in
    acc := (!acc lsl 4) lor d;
    bad := !bad lor d
  done;
  if !bad land 16 <> 0 then -1 else !acc

(* Do the [len] bytes at [s.[at]] hold exactly one marshalled value?  A
   checksum only covers the bytes it is given, so a payload with trailing
   bytes (or a short one) must be refused here, before anyone unmarshals
   it. *)
let exactly_marshalled s at len =
  len >= Marshal.header_size
  &&
  match Marshal.total_size (Bytes.unsafe_of_string s) at with
  | total -> total = len
  | exception Failure _ -> false

(* Does a body of [len] bytes at [s.[at]] hold a [fixed]-byte prefix and
   then exactly one marshalled payload? *)
let payload_ok s at len fixed =
  len >= fixed && exactly_marshalled s (at + fixed) (len - fixed)

(* Is the checksummed body at [s.[at]], [len] bytes long, a well-formed
   record? *)
let body_ok s at len =
  len >= 1
  &&
  match s.[at] with
  | 'U' -> payload_ok s at len 25
  | 'S' -> payload_ok s at len 9
  | 'B' -> len = 17
  | 'E' -> len = 9
  | _ -> false

type 'acc folded = { acc : 'acc; good_bytes : int; damage : damage }

(* One loop over the frames; it allocates nothing per frame (the only
   closure, [go], is made once per fold). *)
let fold f init s n =
  let rec go off acc =
    if off = n then { acc; good_bytes = off; damage = Clean }
    else if off + header_len > n then { acc; good_bytes = off; damage = Torn }
    else
      let len = hex8 s off and crc = hex8 s (off + 9) in
      if len < 0 || crc < 0 || s.[off + 8] <> ' ' || s.[off + 17] <> ' ' then
        { acc; good_bytes = off; damage = Corrupt }
      else
        let at = off + header_len in
        if at + len > n then { acc; good_bytes = off; damage = Torn }
        else if checksum_sub s at len <> crc || not (body_ok s at len) then
          { acc; good_bytes = off; damage = Corrupt }
        else go (at + len) (f acc s at len)
  in
  go 0 init

module Frame = struct
  let kind s at = s.[at]

  let lsn s at = word s (at + 1)

  let index s at = word s (at + 17)

  let gen s at = word s (at + 1)

  let next_lsn s at = word s (at + 9)

  let payload s at = if s.[at] = 'U' then at + 25 else at + 9
end

(* The frame [fold] handed over as a record, payload copied. *)
let record s at len =
  match s.[at] with
  | 'U' ->
    Update
      {
        lsn = Frame.lsn s at;
        pid = word s (at + 9);
        index = Frame.index s at;
        payload = String.sub s (at + 25) (len - 25);
      }
  | 'S' ->
    let payload = String.sub s (at + 9) (len - 9) in
    Scan_seal { gen = Frame.gen s at; payload }
  | 'B' ->
    Checkpoint_begin { gen = Frame.gen s at; next_lsn = Frame.next_lsn s at }
  | _ -> Checkpoint_end { gen = Frame.gen s at }

(* [fold]'s step and result for collecting the records. *)
let cons acc s at len = record s at len :: acc

let collected { acc; good_bytes; damage } =
  { records = List.rev acc; good_bytes; damage }

let decode_all s = collected (fold cons [] s (String.length s))

let pp_record ppf = function
  | Update { lsn; pid; index; _ } ->
    Fmt.pf ppf "update lsn=%d p%d i=%d" lsn pid index
  | Scan_seal { gen; payload } ->
    Fmt.pf ppf "scan-seal gen=%d (%dB)" gen (String.length payload)
  | Checkpoint_begin { gen; next_lsn } ->
    Fmt.pf ppf "ckpt-begin gen=%d next-lsn=%d" gen next_lsn
  | Checkpoint_end { gen } -> Fmt.pf ppf "ckpt-end gen=%d" gen

(* Log I/O over a storage device. *)
module Metrics = Psnap_sched.Metrics

module Make (St : Storage.S) = struct
  let append dev r = St.append dev (encode r)

  let append_update dev sc ~lsn ~pid ~index v =
    St.append dev (value_frame sc 'U' lsn pid index v)

  let append_seal dev sc ~gen v = St.append dev (value_frame sc 'S' gen 0 0 v)

  (* Fold over the device's (volatile) contents in place, and finish
     while the bytes are still lent; then, with [repair], truncate any
     damaged tail so the next pass reads a clean log.  Truncation and
     reads cost no steps: this is recovery-time work (storage.mli). *)
  let fold ?(repair = false) dev f init ~finish =
    let d =
      St.with_contents dev (fun log n ->
          let d = fold f init log n in
          { d with acc = finish d.acc log })
    in
    (match d.damage with
    | Clean -> ()
    | Torn | Corrupt ->
      if repair then begin
        let dropped = St.size dev - d.good_bytes in
        St.truncate dev d.good_bytes;
        Metrics.add Metrics.Durable.truncated_bytes dropped;
        Metrics.incr
          (if d.damage = Torn then Metrics.Durable.torn_records
           else Metrics.Durable.corrupt_records)
      end);
    d

  let read_all ?repair dev =
    collected (fold ?repair dev cons [] ~finish:(fun acc _ -> acc))
end
