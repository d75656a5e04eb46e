(* Checksummed, length-prefixed WAL records (docs/MODEL.md §13).

   Frame layout: an 18-byte ASCII header — "%08x %08x " of (body length,
   FNV-1a checksum of the body) — followed by the marshalled record body.
   [encode] writes the header with a small hex writer into the frame's one
   buffer.  The checksum is verified before the body is ever unmarshalled,
   so a corrupt frame can never reach [Marshal.from_string] (which is
   unsafe on garbage); the body is then unmarshalled in place, behind a
   check that the marshalled value's own size is exactly the frame's
   length.  Every reader is one [fold] over the frames.  It stops at the
   first damaged frame and reports how many bytes were good: a torn tail
   (incomplete header or body — the shape a power loss leaves) and an
   in-place corruption (checksum, header or size mismatch) are
   distinguished so recovery can account for them separately. *)

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

(* FNV-1a, 32-bit, over [s.[off] .. s.[off + len - 1]]. *)
let checksum_sub s off len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code s.[i]) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

let checksum s = checksum_sub s 0 (String.length s)

let header_len = 18

let hex_digits = "0123456789abcdef"

(* [v] as 8 lowercase hex digits at [b.[off]]: the [%08x] of the header. *)
let put_hex8 b off v =
  for i = 0 to 7 do
    Bytes.set b (off + i) hex_digits.[(v lsr (28 - (4 * i))) land 0xf]
  done

(* One allocation for the frame: header written in place, body blitted. *)
let encode r =
  let body = Marshal.to_string r [] in
  let len = String.length body in
  if len > 0xFFFF_FFFF then invalid_arg "Wal.encode: record too large";
  let b = Bytes.create (header_len + len) in
  put_hex8 b 0 len;
  Bytes.set b 8 ' ';
  put_hex8 b 9 (checksum body);
  Bytes.set b 17 ' ';
  Bytes.blit_string body 0 b header_len len;
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

(* Does the checksummed body at [s.[at]] hold exactly one marshalled
   value, [len] bytes long?  Checked before unmarshalling in place, so a
   body with trailing bytes (or a short one) is corruption, as it would
   be if it were copied out and its size compared. *)
let exactly_marshalled s at len =
  len >= Marshal.header_size
  &&
  match Marshal.total_size (Bytes.unsafe_of_string s) at with
  | total -> total = len
  | exception Failure _ -> false

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
        else if
          checksum_sub s at len <> crc || not (exactly_marshalled s at len)
        then stop Corrupt
        else go (at + len) (f acc (Marshal.from_string s at : record))
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
