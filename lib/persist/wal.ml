(* Checksummed, length-prefixed WAL records (docs/MODEL.md §13).

   Frame layout: an 18-byte ASCII header — "%08x %08x " of (body length,
   FNV-1a checksum of the body) — followed by the marshalled record body.
   The checksum is verified before the body is ever unmarshalled, so a
   corrupt frame can never reach [Marshal.from_string] (which is unsafe on
   garbage).  Decoding stops at the first damaged frame and reports how
   many bytes were good: a torn tail (incomplete header or body — the
   shape a power loss leaves) and an in-place corruption (checksum or
   header mismatch) are distinguished so recovery can account for them
   separately. *)

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

(* FNV-1a, 32-bit. *)
let checksum s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF)
    s;
  !h

let header_len = 18

let encode r =
  let body = Marshal.to_string r [] in
  Printf.sprintf "%08x %08x %s" (String.length body) (checksum body) body

let hex8 s off =
  let ok = ref true in
  for i = off to off + 7 do
    match s.[i] with
    | '0' .. '9' | 'a' .. 'f' -> ()
    | _ -> ok := false
  done;
  if !ok then int_of_string_opt ("0x" ^ String.sub s off 8) else None

let decode_all s =
  let n = String.length s in
  let rec go off acc =
    let stop damage = { records = List.rev acc; good_bytes = off; damage } in
    if off = n then stop Clean
    else if off + header_len > n then stop Torn
    else
      match (hex8 s off, hex8 s (off + 9), s.[off + 8], s.[off + 17]) with
      | Some len, Some crc, ' ', ' ' ->
        if off + header_len + len > n then stop Torn
        else
          let body = String.sub s (off + header_len) len in
          if checksum body <> crc then stop Corrupt
          else
            go (off + header_len + len) ((Marshal.from_string body 0 : record) :: acc)
      | _ -> stop Corrupt
  in
  go 0 []

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

  (* Decode the device's (volatile) contents; with [repair], truncate any
     damaged tail so the next pass reads a clean log.  Truncation and
     reads cost no steps: this is recovery-time work (storage.mli). *)
  let read_all ?(repair = false) dev =
    let d = decode_all (St.read dev) in
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

  (* Does the durable log already hold an update with this lsn?  Used by
     owner recovery to make its completion append idempotent. *)
  let has_lsn dev lsn =
    let d = decode_all (St.read dev) in
    List.exists
      (function Update u -> u.lsn = lsn | _ -> false)
      d.records
end
