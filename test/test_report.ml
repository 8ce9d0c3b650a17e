(* Report sink discipline under the domain pool: captures nest (the
   outer sink is restored), a helping domain never leaks lines across
   experiments, uncaptured pool tasks write into the enclosing capture in
   submission order, and [printf] outside any capture still reaches
   stdout. *)

let check_string = Alcotest.(check string)

let with_pool size f =
  let pool = Exec.Pool.create ~size () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) (fun () -> f pool)

(* Nested capture inside a pool task: the task's outer capture gets its
   lines back after the inner capture ends. *)
let test_nested_capture_in_pool_task_restores_outer () =
  with_pool 4 (fun pool ->
      let rendered =
        Exec.Pool.map pool
          (fun i ->
            let inner = ref None in
            let outer =
              Harness.Report.capture (fun () ->
                  Harness.Report.printf "outer %d before\n" i;
                  inner :=
                    Some
                      (Harness.Report.capture (fun () ->
                           Harness.Report.printf "inner %d\n" i));
                  Harness.Report.printf "outer %d after\n" i)
            in
            (Harness.Report.render outer,
             Harness.Report.render (Option.get !inner)))
          (Array.init 8 Fun.id)
      in
      Array.iteri
        (fun i (outer, inner) ->
          check_string "outer restored"
            (Printf.sprintf "outer %d before\nouter %d after\n" i i)
            outer;
          check_string "inner isolated" (Printf.sprintf "inner %d\n" i) inner)
        rendered)

(* A capture that fans out on the pool keeps its own sink even though
   the calling domain helps run other tasks (which install their own
   captures) while waiting for the batch. *)
let test_capture_survives_helping_the_pool () =
  with_pool 2 (fun pool ->
      let inners = ref [||] in
      let outer =
        Harness.Report.capture (fun () ->
            Harness.Report.text "start";
            inners :=
              Exec.Pool.map pool
                (fun i ->
                  Harness.Report.capture (fun () ->
                      Harness.Report.printf "task %d\n" i))
                (Array.init 8 Fun.id);
            Harness.Report.text "end")
      in
      check_string "outer unpolluted by helped tasks" "start\nend\n"
        (Harness.Report.render outer);
      Array.iteri
        (fun i r ->
          check_string "task lines in task report"
            (Printf.sprintf "task %d\n" i)
            (Harness.Report.render r))
        !inners)

(* Pool tasks without a capture of their own — nested fan-outs too —
   write into the enclosing capture, in submission order, whichever
   domain runs them. *)
let test_uncaptured_tasks_land_in_enclosing_capture () =
  let expected =
    "start\n"
    ^ String.concat ""
        (List.init 6 (fun i ->
             Printf.sprintf "task %d\n" i
             ^ String.concat "" (List.init 3 (Printf.sprintf "  sub %d.%d\n" i))))
    ^ "end\n"
  in
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          let r =
            Harness.Report.capture (fun () ->
                Harness.Report.text "start";
                ignore
                  (Exec.Pool.map pool
                     (fun i ->
                       Harness.Report.printf "task %d\n" i;
                       Harness.Report.resultf "task" "%d" i;
                       ignore
                         (Exec.Pool.map pool
                            (fun j -> Harness.Report.printf "  sub %d.%d\n" i j)
                            (Array.init 3 Fun.id)))
                     (Array.init 6 Fun.id));
                Harness.Report.text "end")
          in
          check_string
            (Printf.sprintf "lines in submission order at pool %d" size)
            expected (Harness.Report.render r);
          Alcotest.(check (list string))
            (Printf.sprintf "results in submission order at pool %d" size)
            (List.init 6 string_of_int)
            (List.map snd (Harness.Report.results r))))
    [ 1; 2; 4 ]

(* Outside any capture, printf falls back to stdout (the seed
   behaviour for direct CLI use). Checked by swapping stdout's fd. *)
let test_printf_outside_capture_reaches_stdout () =
  let file = Filename.temp_file "report_stdout" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      flush stdout;
      let saved = Unix.dup Unix.stdout in
      let fd =
        Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
      in
      Unix.dup2 fd Unix.stdout;
      Unix.close fd;
      Fun.protect
        ~finally:(fun () ->
          flush stdout;
          Unix.dup2 saved Unix.stdout;
          Unix.close saved)
        (fun () ->
          Harness.Report.printf "direct %d\n" 7;
          flush stdout);
      let ic = open_in file in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check_string "reached stdout" "direct 7\n" contents)

let () =
  Alcotest.run "report"
    [
      ( "sink",
        [
          Alcotest.test_case "nested capture in pool task" `Quick
            test_nested_capture_in_pool_task_restores_outer;
          Alcotest.test_case "capture survives helping" `Quick
            test_capture_survives_helping_the_pool;
          Alcotest.test_case "uncaptured tasks in capture" `Quick
            test_uncaptured_tasks_land_in_enclosing_capture;
          Alcotest.test_case "printf outside capture" `Quick
            test_printf_outside_capture_reaches_stdout;
        ] );
    ]
