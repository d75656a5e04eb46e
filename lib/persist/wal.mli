(** Checksummed, length-prefixed WAL records (docs/MODEL.md §13).

    Each record is framed as an 18-byte ASCII header — [%08x %08x ] of
    (body length, FNV-1a-32 checksum of the body) — followed by the
    marshalled record body.  The checksum is verified {e before} the body
    is unmarshalled, so corrupt frames never reach [Marshal.from_string];
    a body is unmarshalled in place, and only if the marshalled value it
    holds is exactly the frame's length.  Decoding ({!fold}) stops at the
    first damaged frame, distinguishing a {e torn} tail (incomplete header
    or body — what a power loss leaves) from an in-place {e corruption}
    (checksum, header or size mismatch). *)

type record =
  | Update of { lsn : int; pid : int; index : int; payload : string }
      (** one component write, in commit order: lsns are assigned under
          the commit lock, so log order = apply order by construction *)
  | Scan_seal of { gen : int; payload : string }
      (** a sealed full-scan view (marshalled value array), the body of a
          checkpoint *)
  | Checkpoint_begin of { gen : int; next_lsn : int }
      (** opens checkpoint [gen]; the sealed view includes exactly the
          commits with lsn < [next_lsn] *)
  | Checkpoint_end of { gen : int }
      (** seals checkpoint [gen]: only a complete begin/seal/end triple
          counts at recovery *)

type damage = Clean | Torn | Corrupt

type decoded = {
  records : record list;  (** the valid prefix, in log order *)
  good_bytes : int;  (** offset of the first damaged byte; log size when
                         clean *)
  damage : damage;
}

val checksum : string -> int
(** FNV-1a, 32-bit. *)

val header_len : int

val encode : record -> string

type 'acc folded = {
  acc : 'acc;  (** the fold over the valid prefix *)
  good_bytes : int;
  damage : damage;
}

val fold : ('acc -> record -> 'acc) -> 'acc -> string -> 'acc folded
(** [fold f init log] folds [f] over the records of the log's valid
    prefix, in log order, without building a list. *)

val decode_all : string -> decoded
(** [fold] collecting the records. *)

val pp_record : Format.formatter -> record -> unit

(** Log I/O over a storage device. *)
module Make (St : Storage.S) : sig
  val append : St.t -> record -> unit

  val fold :
    ?repair:bool -> St.t -> ('acc -> record -> 'acc) -> 'acc -> 'acc folded
  (** Fold over the device's contents; with [repair] (default false),
      truncate any damaged tail — bumping the truncation metrics — so the
      next pass reads a clean log.  Reads and repair cost no simulated
      steps: recovery-time work (see {!Storage.S.truncate}). *)

  val read_all : ?repair:bool -> St.t -> decoded
  (** [fold] collecting the records. *)

  val has_lsn : St.t -> int -> bool
  (** Is there an update record with this lsn in the log's valid prefix?
      Owner recovery uses this to make its completion append
      idempotent. *)
end
