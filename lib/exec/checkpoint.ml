(* Content-addressed checkpoint store.

   A checkpoint is a blob of bytes filed under a key derived from the
   *identity* of the work it captures — for an experiment cell:
   (experiment id, scale, impair spec, provenance manifest fields)
   digested to hex. Any change to the identity changes the key, so a
   resume can never pick up a checkpoint from a differently-configured
   run: stale checkpoints are simply never found.

   Every cell is a checksummed, version-stamped record written through
   the Chaos.Io plane: writes are atomic (temp file + fsync + rename in
   the same directory), and reads verify the envelope, so a run killed
   mid-save leaves either the previous checkpoint or an orphaned temp
   file — never a torn cell served as truth. Opening a store sweeps the
   orphans a crash (or an injected torn write) left behind. [load] is
   the one verify-on-read path: a cell whose envelope fails
   verification, or whose payload the caller's decoder rejects, is
   counted, quarantined and reported as {!Corrupt}, for the caller to
   re-execute — never served silently. *)

(* ---- the record envelope ----

   A sealed record is

     %LIBRA-CKPT 1 len=<payload bytes> md5=<hex digest>\n<payload>

   [unseal] verifies the whole chain — magic, version, declared length,
   digest — and reports the first mismatch as a position-carrying
   {!corrupt} value instead of raising: a torn, truncated, bit-flipped
   or plain-garbage file is *detected* and named, never parsed by luck
   or served silently. *)

let magic = "%LIBRA-CKPT"
let version = 1

type corrupt = { path : string; offset : int; reason : string }

let corrupt_to_string { path; offset; reason } =
  Printf.sprintf "%s: corrupt record at byte %d: %s" path offset reason

let seal payload =
  Printf.sprintf "%s %d len=%d md5=%s\n%s" magic version (String.length payload)
    (Digest.to_hex (Digest.string payload))
    payload

let unseal ~path s =
  let fail offset reason = Error { path; offset; reason } in
  let mlen = String.length magic in
  if String.length s < mlen || String.sub s 0 mlen <> magic then
    fail 0 "bad magic (not a LIBRA-CKPT record)"
  else
    match String.index_opt s '\n' with
    | None -> fail (String.length s) "truncated header (no terminator)"
    | Some nl -> (
      let header = String.sub s 0 nl in
      match
        Scanf.sscanf_opt header "%s@ %d len=%d md5=%s" (fun _ v len md5 ->
            (v, len, md5))
      with
      | None -> fail 0 (Printf.sprintf "malformed header %S" header)
      | Some (v, _, _) when v <> version ->
        fail (mlen + 1) (Printf.sprintf "unsupported record version %d" v)
      | Some (_, len, md5) ->
        let body_off = nl + 1 in
        let actual = String.length s - body_off in
        if actual <> len then
          fail
            (body_off + min actual len)
            (Printf.sprintf "truncated payload: header declares %d byte(s), found %d"
               len actual)
        else
          let payload = String.sub s body_off len in
          if Digest.to_hex (Digest.string payload) <> md5 then
            fail body_off "checksum mismatch (payload corrupt)"
          else Ok payload)

let write_record ~path payload = Chaos.Io.write_file path (seal payload)

type 'a lookup =
  | Hit of 'a
  | Miss
  | Corrupt of { path : string; reason : string; quarantined : string option }

(* Read, verify and decode. Detections are counted on the host-fault
   accounting plane (they drive exit code 6) whether or not chaos is
   installed — real disks corrupt bytes without being asked. *)
let verify path ~decode =
  match Chaos.Io.read_file path with
  | None -> Miss
  | Some s -> (
    let decoded =
      match unseal ~path s with
      | Ok payload -> decode payload
      | Error c -> Error (Printf.sprintf "at byte %d: %s" c.offset c.reason)
    in
    match decoded with
    | Ok v -> Hit v
    | Error reason ->
      Chaos.Plane.note_corrupt_detected ();
      Corrupt { path; reason; quarantined = None })

let read_record path = verify path ~decode:Result.ok

(* A decoder for JSON payloads: the envelope checksum passed, but the
   payload must still parse as [what] — anything else is format drift
   or garbage, rejected like byte corruption. *)
let json ~what of_json payload =
  match Obs.Json.parse payload with
  | Error msg -> Error ("sealed payload is not valid JSON: " ^ msg)
  | Ok j -> Option.to_result ~none:("sealed payload is not a " ^ what) (of_json j)

(* ---- the store ---- *)

type store = { dir : string; swept : int }

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ~dir =
  mkdir_p dir;
  (* Startup sweep: remove temp files orphaned by a mid-write kill so
     they can't accumulate across crashy runs. *)
  { dir; swept = Chaos.Io.sweep_tmp dir }

let swept s = s.swept

(* Digest the identity parts into the store key. Parts are joined with
   NUL so ["ab"; "c"] and ["a"; "bc"] can't collide. *)
let key ~parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let path s ~key = Filename.concat s.dir (key ^ ".ckpt")

(* Move a corrupt cell aside (same directory, `.corrupt` suffix) so the
   evidence survives while the key reads as Miss again. Never raises;
   returns the quarantine path on success. *)
let quarantine s ~key =
  let p = path s ~key in
  let q = p ^ ".corrupt" in
  match Sys.rename p q with
  | () -> Some q
  | exception Sys_error _ -> None

let load s ~key ~decode =
  match verify (path s ~key) ~decode with
  | Corrupt c -> Corrupt { c with quarantined = quarantine s ~key }
  | (Hit _ | Miss) as r -> r

let save s ~key contents = write_record ~path:(path s ~key) contents

let mem s ~key = Sys.file_exists (path s ~key)
