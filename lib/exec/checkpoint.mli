(** Content-addressed checkpoint store.

    Blobs filed under a digest of the identity of the work they capture
    (experiment id, scale, impair spec, provenance), so a resume can
    only ever find checkpoints from an identically-configured run.

    Every cell is a checksummed, version-stamped record written through
    the [Chaos.Io] plane: saves are atomic (temp file + fsync +
    rename), loads verify the envelope. {!load} is the one
    verify-on-read path for experiment reports and training snapshots:
    a cell that fails verification, or whose payload the caller's
    decoder rejects, is counted on [Chaos.Plane]'s detection counter,
    quarantined and reported as {!Corrupt} — with the cause — to be
    re-executed, never served silently. Opening a store sweeps temp
    files orphaned by an earlier crash. *)

(** {2 The record envelope}

    [seal]/[unseal] wrap a payload in a one-line header carrying a
    magic string, a format version, the payload length and its MD5
    digest ([%LIBRA-CKPT 1 len=<n> md5=<hex>]). [unseal] verifies all
    four and reports the first mismatch as a position-carrying
    {!corrupt} value — truncation, bit flips and garbage are detected,
    never served. *)

type corrupt = {
  path : string;
  offset : int;  (** byte offset of the first detected inconsistency *)
  reason : string;
}

val corrupt_to_string : corrupt -> string

(** Wrap [payload] in the versioned, checksummed envelope. *)
val seal : string -> string

(** Verify and strip the envelope; [Error] carries the position and
    reason of the first inconsistency. *)
val unseal : path:string -> string -> (string, corrupt) result

(** [write_record ~path payload] atomically writes the sealed record
    (raises [Chaos.Io.Fault] under an injected host fault). *)
val write_record : path:string -> string -> unit

(** The result of a verified read. [Corrupt]'s [reason] carries the
    byte position and cause of an envelope failure ("at byte N: ...")
    or the decoder's rejection; [quarantined] names the [.corrupt] file
    the cell was moved to. *)
type 'a lookup =
  | Hit of 'a
  | Miss
  | Corrupt of { path : string; reason : string; quarantined : string option }

(** Read and verify the record at a path, outside any store: [Miss]
    when the file doesn't exist, [Corrupt] (counted, never quarantined)
    when the envelope fails verification. Raises [Chaos.Io.Fault] only
    for an injected read fault. *)
val read_record : string -> string lookup

(** [json ~what of_json] decodes a JSON payload for {!load}:
    "sealed payload is not valid JSON: ..." when it does not parse,
    "sealed payload is not a [what]" when [of_json] rejects it. *)
val json : what:string -> (Obs.Json.t -> 'a option) -> string -> ('a, string) result

(** {2 The store} *)

type store

(** Open (creating directories as needed) a store rooted at [dir],
    sweeping any orphaned temp files a crash left behind. *)
val create : dir:string -> store

(** How many orphaned temp files the opening sweep removed. *)
val swept : store -> int

(** Digest identity [parts] into a store key (NUL-joined, so part
    boundaries can't collide). *)
val key : parts:string list -> string

(** The file a key maps to (for diagnostics / tests). *)
val path : store -> key:string -> string

(** Load, verify and [decode] the cell for [key]. A failed envelope or
    a rejected payload counts one detection on [Chaos.Plane] and moves
    the cell aside to [<cell>.corrupt], so the evidence survives while
    the key reads as [Miss] again. Raises [Chaos.Io.Fault] only for an
    injected read fault. *)
val load : store -> key:string -> decode:(string -> ('a, string) result) -> 'a lookup

(** Atomically save the sealed cell (raises [Chaos.Io.Fault] under an
    injected host fault). *)
val save : store -> key:string -> string -> unit

val mem : store -> key:string -> bool
