(** Checksummed, length-prefixed WAL records (docs/MODEL.md §13).

    Each record is framed as an 18-byte ASCII header — [%08x %08x ] of
    (body length, {!checksum} of the body) — followed by a binary body:
    one kind byte (['U'], ['S'], ['B'] or ['E']), the kind's integers as
    8-byte little-endian words ([Update]: lsn, pid, index; [Scan_seal]:
    gen; [Checkpoint_begin]: gen, next_lsn; [Checkpoint_end]: gen), and
    for [Update] and [Scan_seal] the payload bytes, running to the end of
    the body.  {!encode}, {!Make.append_update} and {!Make.append_seal}
    share one frame writer and give the same bytes; the latter two
    marshal a commit's value or a checkpoint's view straight into a
    {!scratch} buffer.  Decoding marshals nothing.

    Reading ({!fold}) stops at the first damaged frame, distinguishing a
    {e torn} tail (incomplete header or body — what a power loss leaves)
    from an in-place {e corruption}: a header that is not hex, a checksum
    mismatch, an unknown kind byte, a body too short or too long for its
    kind, or a payload that is not exactly one marshalled value
    ([Marshal.total_size] equal to its length).  So a payload that
    reaches a reader has passed the checksum and the size check, and only
    then may recovery hand it to [Marshal.from_string].  The reader works
    on the log's bytes in place: {!fold} hands each frame over as an
    offset, and {!Frame} reads its fields without copying. *)

type record =
  | Update of { lsn : int; pid : int; index : int; payload : string }
      (** one component write, in commit order: lsns are assigned under
          the component's stripe of the commit lock, so a component's log
          order = its apply order by construction *)
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

val checksum_sub : string -> int -> int -> int
(** [checksum_sub s off len] is [checksum (String.sub s off len)],
    without the copy.
    @raise Invalid_argument if [off] and [len] are not a valid range of
    [s]. *)

val header_len : int

val encode : record -> string

type scratch
(** A growable buffer that a commit marshals its value into
    ({!Make.append_update}), and a checkpoint its view
    ({!Make.append_seal}).  Not thread-safe: one writer at a time, such
    as the durable handle that owns it. *)

val scratch : unit -> scratch

type 'acc folded = {
  acc : 'acc;  (** the fold over the valid prefix *)
  good_bytes : int;
  damage : damage;
}

val fold :
  ('acc -> string -> int -> int -> 'acc) -> 'acc -> string -> int -> 'acc folded
(** [fold f init log n] checks the frames in the first [n] bytes of
    [log], in log order, and folds [f acc log at len] over the frames of
    the valid prefix, where [at] is the offset of a frame's body in [log]
    and [len] its length.  Every frame [f] sees has passed every check
    above; {!Frame} reads its fields in place.  [fold] itself allocates
    nothing per frame: it builds no record and copies no payload. *)

(** The fields of a frame that {!fold} handed over, read in place: [log]
    and [at] are the arguments [f] received. *)
module Frame : sig
  val kind : string -> int -> char
  (** The kind byte: ['U'], ['S'], ['B'] or ['E']. *)

  val lsn : string -> int -> int
  (** Of an [Update]. *)

  val index : string -> int -> int
  (** Of an [Update]. *)

  val gen : string -> int -> int
  (** Of a [Scan_seal], [Checkpoint_begin] or [Checkpoint_end]. *)

  val next_lsn : string -> int -> int
  (** Of a [Checkpoint_begin]. *)

  val payload : string -> int -> int
  (** The offset in [log] of an [Update]'s or [Scan_seal]'s payload:
      exactly one marshalled value, so [Marshal.from_string log
      (payload log at)] decodes it. *)
end

val decode_all : string -> decoded
(** [fold] over the whole string, collecting the records. *)

val pp_record : Format.formatter -> record -> unit

(** Log I/O over a storage device. *)
module Make (St : Storage.S) : sig
  val append : St.t -> record -> unit

  val append_update :
    St.t -> scratch -> lsn:int -> pid:int -> index:int -> 'a -> unit
  (** [append_update dev sc ~lsn ~pid ~index v] appends the frame of
      [Update {lsn; pid; index; payload = Marshal.to_string v []}], byte
      for byte, but builds neither the record nor the payload string:
      [v] is marshalled into [sc], the frame is written around it by the
      writer {!encode} uses, and one copy of it goes to [St.append]. *)

  val append_seal : St.t -> scratch -> gen:int -> 'a -> unit
  (** [append_seal dev sc ~gen v] appends the frame of
      [Scan_seal {gen; payload = Marshal.to_string v []}] the same way. *)

  val fold :
    ?repair:bool ->
    St.t ->
    ('acc -> string -> int -> int -> 'acc) ->
    'acc ->
    finish:('acc -> string -> 'b) ->
    'b folded
  (** [fold dev f init ~finish] runs {!val-fold} over the device's own
      bytes ({!Storage.S.with_contents}: no copy), then [finish acc log]
      while the bytes are still lent, so [finish] may read the frames [f]
      kept offsets of.  With [repair] (default false), it then truncates
      any damaged tail, bumping the truncation metrics, so the next pass
      reads a clean log.  Reads and repair cost no simulated steps:
      recovery-time work (see {!Storage.S.truncate}). *)

  val read_all : ?repair:bool -> St.t -> decoded
  (** [fold] collecting the records. *)
end
