(** Adler-32 checksums protecting on-disk metadata blocks (checkpoint
    regions and segment summaries), so torn or stale writes are detected
    during recovery instead of silently corrupting the file system. *)

val adler32 : ?pos:int -> ?len:int -> bytes -> int32
(** Checksum of [len] bytes of [b] starting at [pos] (defaults: whole
    buffer).  Raises [Invalid_argument] unless [pos >= 0], [len >= 0]
    and [pos + len <= Bytes.length b]. *)

val adler32_string : string -> int32
