(** Checksummed, length-prefixed WAL records (docs/MODEL.md §13).

    Each record is framed as an 18-byte ASCII header — [%08x %08x ] of
    (body length, {!checksum} of the body) — followed by a binary body:
    one kind byte (['U'], ['S'], ['B'] or ['E']), the kind's integers as
    8-byte little-endian words ([Update]: lsn, pid, index; [Scan_seal]:
    gen; [Checkpoint_begin]: gen, next_lsn; [Checkpoint_end]: gen), and
    for [Update] and [Scan_seal] the payload bytes, running to the end of
    the body.  Neither encoding nor decoding marshals anything.

    Decoding ({!fold}) stops at the first damaged frame, distinguishing a
    {e torn} tail (incomplete header or body — what a power loss leaves)
    from an in-place {e corruption}: a header that is not hex, a checksum
    mismatch, an unknown kind byte, a body too short or too long for its
    kind, or a payload that is not exactly one marshalled value
    ([Marshal.total_size] equal to its length).  So a payload that
    decodes has passed the checksum and the size check, and only then may
    recovery hand it to [Marshal.from_string]. *)

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
(** A 32-bit checksum over 4-byte little-endian words (the last one
    zero-padded), then the length: MurmurHash3's block step and
    finaliser.  For a fixed word each step is a bijection of the running
    state, and for a fixed state an injection of the word, so any change
    confined to one word is always detected. *)

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
