(* Checksummed, length-prefixed WAL records (docs/MODEL.md §13).

   Frame layout: an 18-byte ASCII header — "%08x %08x " of (body length,
   checksum of the body) — followed by a binary body: one kind byte, the
   kind's integers as 8-byte little-endian words, and for [Update] and
   [Scan_seal] the payload bytes, running to the end of the body:

     'U' lsn pid index payload     'B' gen next_lsn
     'S' gen payload               'E' gen

   [encode] builds the frame in one buffer and marshals nothing; the
   payloads are marshalled by the caller (a component value, a sealed
   view).  [fold] decodes frames without [Marshal].  It stops at the
   first damaged frame and reports how many bytes were good: a torn tail
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
          the commit lock, so log order = apply order by construction *)
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
   stay unboxed when inlined into integer code. *)
external get32_ne : string -> int -> int32 = "%caml_string_get32"

external get64_ne : string -> int -> int64 = "%caml_string_get64"

external set64_ne : bytes -> int -> int64 -> unit = "%caml_bytes_set64"

external swap32 : int32 -> int32 = "%bswap_int32"

external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get32_le s i =
  if Sys.big_endian then swap32 (get32_ne s i) else get32_ne s i

let[@inline] get64_le s i =
  if Sys.big_endian then swap64 (get64_ne s i) else get64_ne s i

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

let mix h w = (rotl32 (h lxor scramble w) 13 * 5 + 0xe6546b64) land mask32

let fmix h =
  let h = h lxor (h lsr 16) * 0x85ebca6b land mask32 in
  let h = h lxor (h lsr 13) * 0xc2b2ae35 land mask32 in
  h lxor (h lsr 16)

(* Over [s.[off] .. s.[off + len - 1]], 4-byte little-endian words. *)
let checksum_sub s off len =
  let h = ref 0 and i = ref off in
  let words_end = off + (len land lnot 3) in
  while !i < words_end do
    h := mix !h (Int32.to_int (get32_le s !i) land mask32);
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

let checksum s = checksum_sub s 0 (String.length s)

let header_len = 18

let hex_digits = "0123456789abcdef"

(* [v] as 8 lowercase hex digits at [b.[off]]: the [%08x] of the header. *)
let put_hex8 b off v =
  for i = 0 to 7 do
    Bytes.set b (off + i) hex_digits.[(v lsr (28 - (4 * i))) land 0xf]
  done

let put_word b off v = set64_le b off (Int64.of_int v)

let word s off = Int64.to_int (get64_le s off)

(* The body's length without the payload: the kind byte and the words. *)
let fixed_len = function
  | Update _ -> 25
  | Scan_seal _ | Checkpoint_end _ -> 9
  | Checkpoint_begin _ -> 17

(* One allocation for the frame: body written after the header, then the
   header over it. *)
let encode r =
  let payload =
    match r with
    | Update { payload; _ } | Scan_seal { payload; _ } -> payload
    | Checkpoint_begin _ | Checkpoint_end _ -> ""
  in
  let fixed = fixed_len r in
  let len = fixed + String.length payload in
  if len > mask32 then invalid_arg "Wal.encode: record too large";
  let b = Bytes.create (header_len + len) in
  let at = header_len in
  (match r with
  | Update { lsn; pid; index; _ } ->
    Bytes.set b at 'U';
    put_word b (at + 1) lsn;
    put_word b (at + 9) pid;
    put_word b (at + 17) index
  | Scan_seal { gen; _ } ->
    Bytes.set b at 'S';
    put_word b (at + 1) gen
  | Checkpoint_begin { gen; next_lsn } ->
    Bytes.set b at 'B';
    put_word b (at + 1) gen;
    put_word b (at + 9) next_lsn
  | Checkpoint_end { gen } ->
    Bytes.set b at 'E';
    put_word b (at + 1) gen);
  Bytes.blit_string payload 0 b (at + fixed) (String.length payload);
  put_hex8 b 0 len;
  Bytes.set b 8 ' ';
  put_hex8 b 9 (checksum_sub (Bytes.unsafe_to_string b) at len);
  Bytes.set b 17 ' ';
  Bytes.unsafe_to_string b

(* The 8 hex digits at [s.[off]], or -1 if any is not [0-9a-f]. *)
let hex8 s off =
  let rec go i acc =
    if i = off + 8 then acc
    else
      match s.[i] with
      | '0' .. '9' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - 48))
      | 'a' .. 'f' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - 87))
      | _ -> -1
  in
  go off 0

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

(* The checksummed body at [s.[at]], [len] bytes long; [None] if it is
   not a well-formed record. *)
let decode_body s at len =
  if len < 1 then None
  else
    match s.[at] with
    | 'U' when payload_ok s at len 25 ->
      Some
        (Update
           {
             lsn = word s (at + 1);
             pid = word s (at + 9);
             index = word s (at + 17);
             payload = String.sub s (at + 25) (len - 25);
           })
    | 'S' when payload_ok s at len 9 ->
      Some
        (Scan_seal
           { gen = word s (at + 1); payload = String.sub s (at + 9) (len - 9) })
    | 'B' when len = 17 ->
      Some
        (Checkpoint_begin { gen = word s (at + 1); next_lsn = word s (at + 9) })
    | 'E' when len = 9 -> Some (Checkpoint_end { gen = word s (at + 1) })
    | _ -> None

type 'acc folded = { acc : 'acc; good_bytes : int; damage : damage }

let fold f init s =
  let n = String.length s in
  let rec go off acc =
    let stop damage = { acc; good_bytes = off; damage } in
    if off = n then stop Clean
    else if off + header_len > n then stop Torn
    else
      let len = hex8 s off and crc = hex8 s (off + 9) in
      if len < 0 || crc < 0 || s.[off + 8] <> ' ' || s.[off + 17] <> ' ' then
        stop Corrupt
      else
        let at = off + header_len in
        if at + len > n then stop Torn
        else if checksum_sub s at len <> crc then stop Corrupt
        else
          match decode_body s at len with
          | Some r -> go (at + len) (f acc r)
          | None -> stop Corrupt
  in
  go 0 init

(* [fold]'s step and result for collecting the records. *)
let cons acc r = r :: acc

let collected { acc; good_bytes; damage } =
  { records = List.rev acc; good_bytes; damage }

let decode_all s = collected (fold cons [] s)

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

  (* Fold over the device's (volatile) contents; with [repair], truncate
     any damaged tail so the next pass reads a clean log.  Truncation and
     reads cost no steps: this is recovery-time work (storage.mli). *)
  let fold ?(repair = false) dev f init =
    let d = fold f init (St.read dev) in
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

  let read_all ?repair dev = collected (fold ?repair dev cons [])

  (* Does the durable log already hold an update with this lsn?  Used by
     owner recovery to make its completion append idempotent. *)
  let has_lsn dev lsn =
    (fold dev
       (fun found -> function Update u -> found || u.lsn = lsn | _ -> found)
       false)
      .acc
end
