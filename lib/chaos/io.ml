(* The injectable I/O plane all harness persistence routes through:
   checkpoint cells, training snapshots, flight dumps, trace/rollup/
   metrics exports.

   Discipline: every write is atomic — full contents to a same-directory
   temp file, an explicit fsync, then rename — so an interrupted or
   faulted write leaves either the previous file or an orphaned
   [.tmp], never a torn destination. (Orphans are swept by
   [sweep_tmp]; Exec.Checkpoint runs the sweep at store open.)

   Fault injection: when a Chaos.Plane is installed, each operation
   consults it. An aborting fault (torn / enospc / eio) raises the
   structured {!Fault} exception naming the fault class — it never
   escapes as a bare [Sys_error] — while a [flip] fault corrupts the
   payload silently (the caller sees success; verify-on-read is the
   layer that catches it). A torn write simulates a crash: the partial
   temp file is deliberately left behind. Enospc/eio are *errors*, not
   crashes, so their temp files are cleaned up like any well-behaved
   caller would. *)

exception Fault of { fault : string; path : string; detail : string }

let () =
  Printexc.register_printer (function
    | Fault { fault; path; detail } ->
      Some (Printf.sprintf "Chaos.Io.Fault(%s, %s: %s)" fault path detail)
    | _ -> None)

let tmp_suffix = ".tmp"

let raise_fault ~fault ~path ~detail =
  Plane.note_surfaced ();
  raise (Fault { fault; path; detail })

let fsync_out oc =
  try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

(* Write [contents] to [path] atomically, applying any injected fault. *)
let write_file path contents =
  let len = String.length contents in
  let dest = path ^ tmp_suffix in
  match Plane.on_write ~len with
  | Some Plane.W_enospc ->
    raise_fault ~fault:"enospc" ~path
      ~detail:(Printf.sprintf "disk full before %d byte(s)" len)
  | Some Plane.W_eio ->
    raise_fault ~fault:"eio" ~path ~detail:"injected I/O error"
  | Some (Plane.W_torn { keep_bytes }) ->
    (* Simulated crash mid-write: a prefix lands in the temp file and
       nothing else happens — no fsync, no rename, no cleanup. *)
    let oc = open_out_bin dest in
    output_substring oc contents 0 keep_bytes;
    close_out_noerr oc;
    raise_fault ~fault:"torn" ~path
      ~detail:(Printf.sprintf "write torn after %d of %d byte(s)" keep_bytes len)
  | fault ->
    let contents =
      match fault with
      | Some (Plane.W_flip { positions }) ->
        (* Silent corruption: flip one bit at each position; the write
           still reports success. *)
        let b = Bytes.of_string contents in
        List.iter
          (fun pos ->
            if pos >= 0 && pos < len then
              Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01)))
          positions;
        Bytes.unsafe_to_string b
      | _ -> contents
    in
    let oc = open_out_bin dest in
    (try
       output_string oc contents;
       fsync_out oc;
       close_out oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove dest with Sys_error _ -> ());
       raise e);
    Sys.rename dest path;
    Plane.note_written len

(* Read [path] entirely; [None] when it doesn't exist. Injected read
   faults raise {!Fault} (structured), never a bare exception. *)
let read_file path =
  (match Plane.on_read () with
  | Some `Eio -> raise_fault ~fault:"eio" ~path ~detail:"injected read error"
  | None -> ());
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* Remove every orphaned temp file under [dir] (left by a crash or a
   torn write mid-save) and return how many were swept. Never raises:
   a vanished file or unreadable directory sweeps zero. *)
let sweep_tmp dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | files ->
    Array.fold_left
      (fun n f ->
        if Filename.check_suffix f tmp_suffix then (
          match Sys.remove (Filename.concat dir f) with
          | () -> n + 1
          | exception Sys_error _ -> n)
        else n)
      0 files
