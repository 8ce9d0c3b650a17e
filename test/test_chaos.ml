(* Tests for the host-fault chaos layer: the --chaos spec grammar
   (qcheck round-trip through the canonical printer), the checksummed
   Exec.Checkpoint record envelope (truncation / flips / garbage
   detected with a byte position, never served; payloads the decoder
   rejects quarantined alike), the Chaos.Io write discipline
   (structured faults, orphaned-tmp sweep), the self-healing domain
   pool (kill schedules identical at sizes 1 and 4), and the registry's
   recovery transparency: resumes after every fault class render
   byte-identical to a clean run. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Install a plane for the duration of [f], with counters reset on both
   sides — the plane is process-global, so no fault schedule may leak
   into a sibling test. *)
let with_plane ?(seed = 0) spec f =
  Chaos.Plane.reset_stats ();
  Chaos.Plane.install ~seed (Chaos.Spec.of_string_exn spec);
  Fun.protect
    ~finally:(fun () ->
      Chaos.Plane.clear ();
      Chaos.Plane.reset_stats ())
    f

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "libra-chaos-%d-%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

(* ------------------------------------------------------------------ *)
(* Chaos.Spec: grammar round-trip *)

(* Probabilities and window edges drawn from %g-exact values, so
   [to_string] is lossless and structural equality is the right
   round-trip check. *)
let gen_spec =
  let open QCheck.Gen in
  let p = oneofl [ 0.0; 0.1; 0.25; 0.5; 0.75; 1.0 ] in
  let item =
    oneof
      [
        map2
          (fun p keep -> Chaos.Spec.Torn { p; keep })
          p
          (oneofl [ 0.25; 0.5; 0.75 ]);
        map2 (fun p bytes -> Chaos.Spec.Flip { p; bytes }) p (int_range 1 4);
        map (fun after -> Chaos.Spec.Enospc { after }) (int_range 0 10_000);
        map (fun p -> Chaos.Spec.Eio { p }) p;
        map (fun p -> Chaos.Spec.Kill_domain { p }) p;
      ]
  in
  let windowed =
    map3
      (fun item from_ until -> { Chaos.Spec.item; from_; until })
      item
      (oneofl [ 0.0; 2.0; 16.0 ])
      (oneofl [ infinity; 8.0; 64.0 ])
  in
  map (fun items -> { Chaos.Spec.items }) (list_size (int_range 0 4) windowed)

let test_spec_round_trip =
  QCheck.Test.make ~count:200 ~name:"chaos spec: parse (to_string s) = s"
    (QCheck.make ~print:(fun s -> Chaos.Spec.to_string s) gen_spec)
    (fun s -> Chaos.Spec.of_string (Chaos.Spec.to_string s) = Ok s)

let test_spec_none_and_errors () =
  check_bool "empty is none" true (Chaos.Spec.of_string "" = Ok Chaos.Spec.empty);
  check_bool "none is empty" true
    (Chaos.Spec.of_string "none" = Ok Chaos.Spec.empty);
  check_string "none prints canonically" "none"
    (Chaos.Spec.to_string Chaos.Spec.empty);
  (* Malformed specs pinpoint the offending '+'-separated item. *)
  (match Chaos.Spec.of_string "torn+bogus:p=1" with
  | Error m -> check_bool "unknown fault names its position" true
      (contains m "chaos item 2" && contains m "bogus")
  | Ok _ -> Alcotest.fail "unknown fault accepted");
  (match Chaos.Spec.of_string "torn:p=x" with
  | Error m -> check_bool "non-numeric value rejected" true
      (contains m "not a number")
  | Ok _ -> Alcotest.fail "non-numeric value accepted");
  match Chaos.Spec.of_string "eio:q=1" with
  | Error m -> check_bool "unknown key rejected" true (contains m "unknown key")
  | Ok _ -> Alcotest.fail "unknown key accepted"

(* The canonical printer's exact bytes (defaults omitted, fixed key
   order, integer keys printed as integers), captured from the printer
   as it was before the grammar kernel existed. *)
let test_spec_printer_pinned () =
  List.iter
    (fun (input, want) ->
      check_string ("to_string of " ^ input) want
        (Chaos.Spec.to_string (Chaos.Spec.of_string_exn input)))
    [
      ("none", "none");
      ("", "none");
      ("torn", "torn");
      ("torn:p=0.3,keep=0.5", "torn:p=0.3");
      ("flip:bytes=2,p=0.1", "flip:p=0.1,bytes=2");
      ("flip:bytes=2.9", "flip:bytes=2");
      ("enospc:after=4096", "enospc:after=4096");
      ("enospc:after=-5", "enospc");
      ("eio:p=0.05", "eio:p=0.05");
      ("kill-domain", "kill-domain");
      ("kill-domain:p=0.25,from=2,until=8", "kill-domain:p=0.25,from=2,until=8");
      ("torn:from=16+eio:p=0.5", "torn:from=16+eio:p=0.5");
      ("enospc:after=1e9", "enospc:after=1000000000");
      ("torn:p=1,keep=0.5", "torn");
    ]

(* ------------------------------------------------------------------ *)
(* Exec.Checkpoint: the checksummed record envelope *)

let test_envelope_round_trip () =
  let payload = "report body\nwith a second line" in
  match Exec.Checkpoint.unseal ~path:"cell" (Exec.Checkpoint.seal payload) with
  | Ok p -> check_string "seal/unseal round-trips" payload p
  | Error c ->
    Alcotest.fail ("round-trip rejected: " ^ Exec.Checkpoint.corrupt_to_string c)

let expect_corrupt name ~expect blob =
  match Exec.Checkpoint.unseal ~path:"cell" blob with
  | Ok _ -> Alcotest.fail (name ^ ": corruption served as a hit")
  | Error { offset; reason; _ } ->
    check_bool
      (Printf.sprintf "%s: reason %S names the cause" name reason)
      true (contains reason expect);
    offset

let test_envelope_detects_corruption () =
  let sealed = Exec.Checkpoint.seal "0123456789" in
  (* Truncation: the header's declared length no longer matches. *)
  let off =
    expect_corrupt "truncated" ~expect:"truncated payload"
      (String.sub sealed 0 (String.length sealed - 3))
  in
  check_bool "truncation offset past the header" true (off > 0);
  (* A flipped payload byte fails the digest at the body offset. *)
  let flipped = Bytes.of_string sealed in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last (Char.chr (Char.code (Bytes.get flipped last) lxor 0x01));
  ignore
    (expect_corrupt "bit flip" ~expect:"checksum mismatch"
       (Bytes.to_string flipped));
  (* Garbage has no magic; the offset is the start of the file. *)
  check_int "garbage detected at byte 0" 0
    (expect_corrupt "garbage" ~expect:"bad magic" "not a record at all");
  ignore (expect_corrupt "empty" ~expect:"bad magic" "")

let test_read_record_counts_detections () =
  (* Verify-on-read accounting is independent of any installed plane:
     a corrupt cell on a clean host still counts (and still drives
     exit code 6 in the CLIs). *)
  let dir = temp_dir () in
  let path = Filename.concat dir "cell.ckpt" in
  Exec.Checkpoint.write_record ~path "payload";
  let before = Chaos.Plane.corrupt_detected () in
  (match Exec.Checkpoint.read_record path with
  | Exec.Checkpoint.Hit p -> check_string "clean record read back" "payload" p
  | _ -> Alcotest.fail "clean record not served");
  let oc = open_out_bin path in
  output_string oc "%LIBRA-CKPT 1 len=7 md5=0000";
  close_out oc;
  (match Exec.Checkpoint.read_record path with
  | Exec.Checkpoint.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated record not detected");
  check_int "detection counted without a plane" (before + 1)
    (Chaos.Plane.corrupt_detected ())

(* ------------------------------------------------------------------ *)
(* Chaos.Io: write discipline and structured faults *)

let test_sweep_orphaned_tmp () =
  let dir = temp_dir () in
  let put name contents =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  put "a.ckpt.tmp" "torn";
  put "b.ckpt.tmp" "torn";
  put "keep.ckpt" "sealed";
  let store = Exec.Checkpoint.create ~dir in
  check_int "both orphans swept at open" 2 (Exec.Checkpoint.swept store);
  check_bool "orphans gone, real cells kept" true
    ((not (Sys.file_exists (Filename.concat dir "a.ckpt.tmp")))
    && (not (Sys.file_exists (Filename.concat dir "b.ckpt.tmp")))
    && Sys.file_exists (Filename.concat dir "keep.ckpt"))

let expect_fault name thunk =
  match thunk () with
  | () -> Alcotest.fail (name ^ ": fault did not surface")
  | exception Chaos.Io.Fault { fault; _ } ->
    check_string (name ^ ": fault class named") name fault

let test_write_faults_are_structured () =
  let dir = temp_dir () in
  let path = Filename.concat dir "out.dat" in
  with_plane "torn:p=1,keep=0.5" (fun () ->
      expect_fault "torn" (fun () -> Chaos.Io.write_file path "0123456789");
      check_bool "torn leaves the orphan, not the destination" true
        (Sys.file_exists (path ^ ".tmp") && not (Sys.file_exists path));
      check_int "surfaced count drives exit 6" 1 (Chaos.Plane.surfaced ()));
  Sys.remove (path ^ ".tmp");
  with_plane "enospc:after=0" (fun () ->
      expect_fault "enospc" (fun () -> Chaos.Io.write_file path "0123456789");
      check_bool "enospc leaves nothing behind" true
        ((not (Sys.file_exists path)) && not (Sys.file_exists (path ^ ".tmp"))));
  with_plane "eio:p=1" (fun () ->
      expect_fault "eio" (fun () -> Chaos.Io.write_file path "0123456789");
      expect_fault "eio" (fun () -> ignore (Chaos.Io.read_file path)))

let test_flip_caught_by_verify_on_read () =
  let dir = temp_dir () in
  let path = Filename.concat dir "cell.ckpt" in
  let payload = String.make 64 'x' in
  with_plane "flip:p=1,bytes=1" (fun () ->
      (* The write "succeeds": silent corruption surfaces only at the
         verify-on-read layer, as Corrupt — never as a lucky Hit. *)
      Exec.Checkpoint.write_record ~path payload;
      check_bool "flip is silent at write time" true (Sys.file_exists path);
      check_int "one flip injected" 1 (Chaos.Plane.stats ()).Chaos.Plane.flips);
  match Exec.Checkpoint.read_record path with
  | Exec.Checkpoint.Corrupt { reason; _ } ->
    check_bool "flip detected with a cause" true (String.length reason > 0)
  | Exec.Checkpoint.Hit _ -> Alcotest.fail "flipped record served as a hit"
  | Exec.Checkpoint.Miss -> Alcotest.fail "flipped record read as a miss"

let test_checkpoint_corrupt_and_quarantine () =
  let dir = temp_dir () in
  let store = Exec.Checkpoint.create ~dir in
  let key = Exec.Checkpoint.key ~parts:[ "fig7"; "quick" ] in
  Exec.Checkpoint.save store ~key "the report";
  (* Shell-style truncation: keep the first 30 bytes of the cell. *)
  let path = Exec.Checkpoint.path store ~key in
  let ic = open_in_bin path in
  let prefix = really_input_string ic (min 30 (in_channel_length ic)) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc prefix;
  close_out oc;
  (match Exec.Checkpoint.load store ~key ~decode:Result.ok with
  | Exec.Checkpoint.Corrupt { reason; path = p; quarantined } -> (
    check_string "corrupt names the cell" path p;
    check_bool "reason carries the byte position" true (contains reason "at byte");
    match quarantined with
    | Some q ->
      check_bool "evidence survives quarantine" true
        (Sys.file_exists q && Filename.check_suffix q ".corrupt")
    | None -> Alcotest.fail "quarantine failed")
  | _ -> Alcotest.fail "truncated cell not detected");
  check_bool "quarantined key reads Miss again" true
    (Exec.Checkpoint.load store ~key ~decode:Result.ok = Exec.Checkpoint.Miss)

(* A cell whose seal verifies but whose payload the caller's decoder
   rejects is as corrupt as a flipped one: [load] counts it, moves it
   aside and names the decoder's reason, so `train --resume` and the
   registry recover the same way. *)
let test_checkpoint_decode_rejected () =
  let dir = temp_dir () in
  let store = Exec.Checkpoint.create ~dir in
  let decode = Exec.Checkpoint.json ~what:"snapshot" Rlcc.Train.snapshot_of_json in
  let expect_rejected name payload ~reason:expect =
    let key = Exec.Checkpoint.key ~parts:[ "train"; name ] in
    Exec.Checkpoint.save store ~key payload;
    let before = Chaos.Plane.corrupt_detected () in
    (match Exec.Checkpoint.load store ~key ~decode with
    | Exec.Checkpoint.Corrupt { reason; quarantined = Some q; _ } ->
      check_bool
        (Printf.sprintf "%s: reason %S is the decoder's" name reason)
        true (contains reason expect);
      check_bool (name ^ ": evidence quarantined") true
        (Sys.file_exists q && Filename.check_suffix q ".corrupt")
    | _ -> Alcotest.fail (name ^ ": undecodable payload not quarantined as corrupt"));
    check_int (name ^ ": one detection counted") (before + 1)
      (Chaos.Plane.corrupt_detected ());
    check_bool (name ^ ": key reads Miss afterwards") true
      (Exec.Checkpoint.load store ~key ~decode = Exec.Checkpoint.Miss)
  in
  expect_rejected "foreign" {|{"not":"a snapshot"}|}
    ~reason:"sealed payload is not a snapshot";
  expect_rejected "garbage" "not json" ~reason:"sealed payload is not valid JSON: "

let test_supervisor_maps_fault_to_corrupt () =
  match
    Exec.Supervisor.protect ~context:"cell" (fun ~attempt:_ ->
        raise (Chaos.Io.Fault { fault = "torn"; path = "/store/x.ckpt"; detail = "d" }))
  with
  | Ok _ -> Alcotest.fail "fault swallowed"
  | Error f ->
    check_bool "kind is Corrupt with the class and path" true
      (f.Exec.Supervisor.kind
      = Exec.Supervisor.Corrupt { path = "/store/x.ckpt"; fault = "torn" });
    check_string "report kind" "corrupt"
      (Exec.Supervisor.kind_name f.Exec.Supervisor.kind);
    check_bool "render names the host fault" true
      (List.exists
         (fun l -> contains l "host fault: torn at /store/x.ckpt")
         (Exec.Supervisor.render f))

(* ------------------------------------------------------------------ *)
(* Exec.Pool: kill-domain schedules heal identically at any size *)

let test_pool_kill_deterministic () =
  let input = Array.init 12 (fun i -> i + 1) in
  let expected = Array.map (fun x -> x * x) input in
  let run size =
    (* Reinstall per run: the task-sequence counter lives in the
       installed state, so each run draws the same fates for the same
       submission order. *)
    with_plane ~seed:7 "kill-domain:p=0.7" (fun () ->
        let pool = Exec.Pool.create ~size () in
        Fun.protect
          ~finally:(fun () -> Exec.Pool.shutdown pool)
          (fun () ->
            let out = Exec.Pool.map pool (fun x -> x * x) input in
            let st = Chaos.Plane.stats () in
            (out, st.Chaos.Plane.kills, st.Chaos.Plane.resurrections)))
  in
  let out1, kills1, res1 = run 1 in
  let out4, kills4, res4 = run 4 in
  check_bool "killed tasks still produce every result" true
    (out1 = expected && out4 = expected);
  check_bool "schedule actually fired" true (kills1 > 0);
  check_int "every kill resurrected" kills1 res1;
  check_int "kill schedule identical at sizes 1 and 4" kills1 kills4;
  check_int "resurrections identical at sizes 1 and 4" res1 res4

let test_pool_kill_p1_terminates () =
  (* Even kill-domain:p=1 terminates: attempts past the immunity cap
     run unkilled, so no task can starve forever. *)
  with_plane "kill-domain:p=1" (fun () ->
      let pool = Exec.Pool.create ~size:4 () in
      Fun.protect
        ~finally:(fun () -> Exec.Pool.shutdown pool)
        (fun () ->
          let out = Exec.Pool.map pool (fun x -> x + 1) (Array.init 6 Fun.id) in
          check_bool "all tasks completed under p=1" true
            (out = Array.init 6 (fun i -> i + 1))))

(* ------------------------------------------------------------------ *)
(* Registry recovery transparency: resume after every fault class
   renders byte-identical to a clean run *)

let toy_entries =
  List.map
    (fun (id, v) ->
      {
        Harness.Registry.id;
        what = "toy entry";
        group = id;
        run =
          (fun () ->
            Harness.Report.capture (fun () ->
                Harness.Report.printf "toy %s\n" id;
                Harness.Report.result "value" (string_of_int v)));
      })
    [ ("alpha", 1); ("beta", 2); ("gamma", 3) ]

let render_outcomes outcomes =
  String.concat ""
    (List.map
       (fun (o : Harness.Registry.outcome) -> Harness.Report.render o.report)
       outcomes)

let run_toys ?(pool = Exec.Pool.sequential) supervision =
  Harness.Registry.run_entries ~pool ~supervision ~entries:toy_entries ()

let test_resume_equals_clean_under_faults () =
  let reference = render_outcomes (run_toys Harness.Registry.default_supervision) in
  check_bool "reference output non-empty" true (String.length reference > 0);
  let supervised dir =
    {
      Harness.Registry.default_supervision with
      checkpoint = Some (Exec.Checkpoint.create ~dir);
      resume = true;
    }
  in
  (* Torn saves: every cell save crashes mid-write. The run itself is
     unharmed (reports are already in hand), the orphans are swept at
     the next open, and the rerun re-executes from scratch. *)
  let dir = temp_dir () in
  let out_torn =
    with_plane "torn:p=1" (fun () -> run_toys (supervised dir))
  in
  check_string "torn saves leave output identical" reference
    (render_outcomes out_torn);
  check_bool "torn saves reported per entry" true
    (List.for_all
       (fun (o : Harness.Registry.outcome) ->
         match o.io_fault with Some s -> contains s "torn" | None -> false)
       out_torn);
  let reopened = Exec.Checkpoint.create ~dir in
  check_int "torn orphans swept at reopen" 3 (Exec.Checkpoint.swept reopened);
  let sv = supervised dir in
  check_string "rerun after torn run is identical" reference
    (render_outcomes (run_toys sv));
  let resumed = run_toys sv in
  check_string "second rerun resumes identically" reference
    (render_outcomes resumed);
  check_int "all cells resumed" 3
    (Harness.Registry.summarize resumed).Harness.Registry.resumed;
  (* Flipped saves: silent corruption is caught on resume, the cell is
     quarantined and re-executed — the rendered output never wavers. *)
  let dir = temp_dir () in
  let out_flip =
    with_plane "flip:p=1,bytes=1" (fun () -> run_toys (supervised dir))
  in
  check_string "flipped saves leave output identical" reference
    (render_outcomes out_flip);
  let sv = supervised dir in
  let healed = run_toys sv in
  check_string "resume over flipped cells re-executes identically" reference
    (render_outcomes healed);
  check_int "every flipped cell detected as corrupt" 3
    (Harness.Registry.summarize healed).Harness.Registry.corrupt;
  check_bool "quarantine evidence on disk" true
    (Array.exists
       (fun f -> Filename.check_suffix f ".corrupt")
       (Sys.readdir dir));
  check_int "third run serves the healed cells" 3
    (Harness.Registry.summarize (run_toys sv)).Harness.Registry.resumed;
  (* Enospc and eio degrade the cells, never the output. *)
  let dir = temp_dir () in
  let out_enospc =
    with_plane "enospc:after=0" (fun () -> run_toys (supervised dir))
  in
  check_string "full disk leaves output identical" reference
    (render_outcomes out_enospc);
  let dir = temp_dir () in
  let out_eio = with_plane "eio:p=1" (fun () -> run_toys (supervised dir)) in
  check_string "eio leaves output identical" reference
    (render_outcomes out_eio);
  check_bool "eio named per entry" true
    (List.for_all
       (fun (o : Harness.Registry.outcome) ->
         match o.io_fault with Some s -> contains s "eio" | None -> false)
       out_eio);
  (* Killed domains: entries themselves ride the self-healing pool. *)
  let out_kill =
    with_plane ~seed:3 "kill-domain:p=1" (fun () ->
        let pool = Exec.Pool.create ~size:4 () in
        Fun.protect
          ~finally:(fun () -> Exec.Pool.shutdown pool)
          (fun () -> run_toys ~pool Harness.Registry.default_supervision))
  in
  check_string "killed domains leave output identical" reference
    (render_outcomes out_kill)

(* ------------------------------------------------------------------ *)
(* Harness.Scenario: malformed files rejected with positions *)

let scn_file contents =
  let dir = temp_dir () in
  let path = Filename.concat dir "case.scn" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

let expect_scn_error name ~expect contents =
  match Harness.Scenario.of_file (scn_file contents) with
  | Ok _ -> Alcotest.fail (name ^ ": malformed scenario accepted")
  | Error m ->
    check_bool
      (Printf.sprintf "%s: error %S names the position" name m)
      true (contains m expect)

let test_scenario_rejects_garbage () =
  (match Harness.Scenario.of_file "/nonexistent/x.scn" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted");
  expect_scn_error "non-kv line" ~expect:"line 3"
    "cca: cubic\nimpair: clean\nwhat is this";
  expect_scn_error "unknown key" ~expect:"unknown key \"bogus\""
    "cca: cubic\nimpair: clean\nbogus: 1";
  expect_scn_error "bad number" ~expect:"line 3: key seed"
    "cca: cubic\nimpair: clean\nseed: abc";
  expect_scn_error "missing impair" ~expect:"impair" "cca: cubic\nseed: 4";
  match
    Harness.Scenario.of_file
      (scn_file "# comment\nname: ok\ncca: cubic\nimpair: clean\nseed: 4\n")
  with
  | Ok c ->
    check_string "valid file parses" "ok" c.Harness.Scenario.name;
    check_int "numeric field read" 4 c.Harness.Scenario.seed
  | Error m -> Alcotest.fail ("valid scenario rejected: " ^ m)

let () =
  Alcotest.run "chaos"
    [
      ( "spec",
        [
          QCheck_alcotest.to_alcotest test_spec_round_trip;
          Alcotest.test_case "none and errors" `Quick test_spec_none_and_errors;
          Alcotest.test_case "printer pinned" `Quick test_spec_printer_pinned;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "round trip" `Quick test_envelope_round_trip;
          Alcotest.test_case "detects corruption" `Quick
            test_envelope_detects_corruption;
          Alcotest.test_case "counts detections" `Quick
            test_read_record_counts_detections;
        ] );
      ( "io",
        [
          Alcotest.test_case "sweeps orphaned tmp" `Quick test_sweep_orphaned_tmp;
          Alcotest.test_case "structured write faults" `Quick
            test_write_faults_are_structured;
          Alcotest.test_case "flip caught on read" `Quick
            test_flip_caught_by_verify_on_read;
          Alcotest.test_case "quarantine" `Quick
            test_checkpoint_corrupt_and_quarantine;
          Alcotest.test_case "decode rejection quarantined" `Quick
            test_checkpoint_decode_rejected;
          Alcotest.test_case "supervisor corrupt kind" `Quick
            test_supervisor_maps_fault_to_corrupt;
        ] );
      ( "pool",
        [
          Alcotest.test_case "kill schedule sizes 1 vs 4" `Quick
            test_pool_kill_deterministic;
          Alcotest.test_case "p=1 terminates" `Quick test_pool_kill_p1_terminates;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "resume equals clean" `Quick
            test_resume_equals_clean_under_faults;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "rejects garbage" `Quick test_scenario_rejects_garbage;
        ] );
    ]
