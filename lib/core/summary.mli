(** Segment summary blocks (Section 3.2).

    Each log write (a whole or partial segment) is preceded by a summary
    block identifying every block of the write: kind, owning file and
    position, and the file's uid version so the cleaner can discard dead
    blocks without reading inodes.  Summaries also carry the write
    sequence number and a pointer to the next segment in the log thread,
    which is what lets crash recovery follow the log past the last
    checkpoint, and a checksum over the payload so torn writes are
    detected and ignored. *)

type entry = {
  kind : Types.block_kind;
  ino : Types.ino;   (** owning file; 0 for imap/usage/dir-log blocks *)
  blockno : int;
      (** file block number for data; {!Filemap} sentinel for indirect
          blocks; table index for imap/usage blocks; 0 otherwise *)
  version : int;     (** uid version of the owning file at write time *)
  mtime : float;     (** modify time of the block's data *)
}

type t = {
  seq : int;          (** global log-write sequence number *)
  seg : int;          (** segment this summary lives in *)
  slot : int;         (** block offset of the summary within the segment *)
  next_seg : int;     (** reserved successor segment of the log thread *)
  timestamp : float;
  payload_sum : int;  (** Adler-32 of the payload blocks that follow *)
  entries : entry list;
}

val max_entries : block_size:int -> int
(** How many payload blocks one summary block can describe. *)

val encode_into : block_size:int -> t -> bytes -> unit
(** Overwrite the first [block_size] bytes of the buffer with the
    summary block, leaving the rest untouched (the batch writer encodes
    straight into block 0 of the batch buffer).  Raises
    [Invalid_argument] if there are more entries than {!max_entries}. *)

val encode : block_size:int -> t -> bytes
(** The summary block as a fresh buffer; see {!encode_into}. *)

val decode : bytes -> t option
(** [None] when the block is not a valid summary (bad magic or header
    checksum) — the normal way a log scan terminates. *)

val payload_checksum : ?pos:int -> bytes -> int
(** Checksum to store in / compare against [payload_sum]: the Adler-32
    of the buffer from [pos] (default 0) to its end. *)

val entry_addr : t -> Layout.t -> int -> Types.baddr
(** Disk address of payload block [i] of this summary. *)

val next_slot : t -> int
(** Segment slot just past this write ([slot + 1 + entries]). *)
