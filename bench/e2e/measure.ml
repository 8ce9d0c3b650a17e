(* The benchmark procedure, the same for every workload.

   Closed loop, one client: every run executes on the calling domain and
   starts when the previous one ends, so host time is never shared with
   another domain of this process. A pass is the workload's whole run
   list, in order; timing covers whole passes only. The flight recorder
   is installed around each run, as the experiment CLIs install it by
   default.

   Untraced (the gated end-to-end numbers): three parts, one after the
   other, each in a forked child that starts from this process's
   untouched state. A part sets up, then repeats passes for a third of
   [seconds]. Traced (the per-layer numbers): set up once, then repeat
   rounds of three passes — CCAs wrapped with the flight recorder on,
   unwrapped with it on, unwrapped with it off — so the differences
   between passes price the decorator and the recorder. *)

type metric = { name : string; unit : string; value : float }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  digest : string;
  metrics : metric list;
}

(* ---- passes ---- *)

type pass = {
  wall_s : float;
  run_s : float array;
  lines : string array;  (* each run's summary line, or its failure *)
  ok : Workloads.summary list;
  failed : int;
}

let exec_run ~wrap ~flight i (r : Workloads.run) =
  let go () = r.go wrap in
  let outcome =
    match
      if flight then Obs.Flight.run (Obs.Flight.create ~capacity:2048 ()) ~lane:i go
      else go ()
    with
    | s -> ( match Workloads.violation s with None -> Ok s | Some v -> Error v)
    | exception e -> Error (Printexc.to_string e)
  in
  match outcome with
  | Ok s -> (s.line, Some s)
  | Error msg ->
    Printf.eprintf "run %d (%s) failed: %s\n%!" i r.label msg;
    (Printf.sprintf "FAILED %s: %s" r.label msg, None)

let pass ~wrap ~flight runs =
  let n = Array.length runs in
  let run_s = Array.make n 0.0 and lines = Array.make n "" in
  let ok = ref [] and failed = ref 0 in
  let t0 = Layers.now_s () in
  Array.iteri
    (fun i r ->
      let t = Layers.now_s () in
      let line, s = exec_run ~wrap ~flight i r in
      run_s.(i) <- Layers.now_s () -. t;
      lines.(i) <- line;
      match s with Some s -> ok := s :: !ok | None -> incr failed)
    runs;
  { wall_s = Layers.now_s () -. t0; run_s; lines; ok = List.rev !ok; failed = !failed }

let digest p = Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list p.lines)))
let total f p = List.fold_left (fun a s -> a + f s) 0 p.ok

(* Repeats [f] (a pass) within [seconds]: another pass starts only if
   one more of the mean length so far still ends in time. At least one. *)
let repeat ~seconds f =
  let t0 = Layers.now_s () in
  let rec go n acc =
    let elapsed = Layers.now_s () -. t0 in
    if n > 0 && elapsed *. float_of_int (n + 1) /. float_of_int n > seconds then List.rev acc
    else go (n + 1) (f () :: acc)
  in
  go 0 []

(* ---- set-up ---- *)

let warm_up_runs = 4

(* Set-up ends where timing starts: after the workload's own set-up and
   one untimed pass over the first runs of the list, which lets lazily
   built state (heap growth, first-use caches) settle. [limit] keeps only
   the first runs of the list (the smoke test's tiny shape). *)
let set_up (w : Workloads.t) ~seed ~limit =
  Layers.train := 0.0;
  Layers.gen := 0.0;
  let t0 = Layers.now_s () in
  let runs = w.setup ~seed in
  let runs =
    match limit with Some k -> Array.sub runs 0 (min k (Array.length runs)) | None -> runs
  in
  let warm =
    pass ~wrap:Layers.plain ~flight:true
      (Array.sub runs 0 (min warm_up_runs (Array.length runs)))
  in
  (runs, warm, Layers.now_s () -. t0)

(* [f ()] in a forked child, its result marshalled back. The child
   starts from this process's state, so each call finds the same cold
   caches (policies are cached per process). *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    (match f () with
    | v -> Marshal.to_channel oc (Ok v) []
    | exception e -> Marshal.to_channel oc (Error (Printexc.to_string e)) []);
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
    close_in ic;
    match (snd (Unix.waitpid [] pid), r) with
    | Unix.WEXITED 0, Some (Ok v) -> v
    | _, Some (Error m) -> failwith ("child process: " ^ m)
    | _ -> failwith "child process died")

(* Every pass ran the same runs, so every pass must read the same, and
   the warm-up must agree with the list's first runs. *)
let consistent ~warms passes =
  match passes with
  | [] -> false
  | first :: rest ->
    List.for_all (fun p -> p.lines = first.lines) rest
    && List.for_all
         (fun warm -> warm.lines = Array.sub first.lines 0 (Array.length warm.lines))
         warms

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
  |> function
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith "no VmHWM in /proc/self/status"

let m name unit value = { name; unit; value }
let floats f l = Array.of_list (List.map f l)

(* ---- the two runs ---- *)

type part = { setup_s : float; warm : pass; passes : pass list; rss_mb : float }

let parts = 3

let part w ~seed ~seconds ~limit =
  let runs, warm, setup_s = set_up w ~seed ~limit in
  let passes = repeat ~seconds (fun () -> pass ~wrap:Layers.plain ~flight:true runs) in
  { setup_s; warm; passes; rss_mb = peak_rss_mb () }

let untraced w ~seed ~seconds ~limit =
  let parts =
    List.init parts (fun _ ->
        in_child (fun () ->
            part w ~seed ~seconds:(seconds /. float_of_int parts) ~limit))
  in
  let passes = List.concat_map (fun p -> p.passes) parts in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 passes in
  (* Medians throughout. Load from outside the process slows whole passes
     for seconds at a time, and sequential parts in separate processes
     spread the measurement over more of that weather. Each run's time
     is the median of its repeats; the percentiles are over those. *)
  let med f l = Stats.median (floats f l) in
  let run_s = Array.mapi (fun i _ -> med (fun p -> p.run_s.(i)) passes) (List.hd passes).run_s in
  let run_ms q = 1000.0 *. Stats.percentile run_s q in
  {
    correct = failed = 0 && consistent ~warms:(List.map (fun p -> p.warm) parts) passes;
    attempted = List.fold_left (fun a p -> a + Array.length p.run_s) 0 passes;
    failed;
    digest = digest (List.hd passes);
    metrics =
      [
        m "setup_s" "s" (med (fun p -> p.setup_s) parts);
        m "wall_s" "s" (med (fun p -> p.wall_s) passes);
        m "run_p50_ms" "ms" (run_ms 0.5);
        m "run_p90_ms" "ms" (run_ms 0.9);
        m "peak_rss_mb" "MB" (med (fun p -> p.rss_mb) parts);
      ];
  }

type round = {
  wrapped : pass;  (* CCAs wrapped, flight recorder on *)
  bare : pass;  (* unwrapped, flight recorder on *)
  dark : pass;  (* unwrapped, flight recorder off *)
  counts : (Layers.layer * Layers.counts) list;
  nn_forwards : int;
  minor_words : float;
  major_gcs : int;
}

let round runs =
  Layers.reset ();
  let nn0 = Rlcc.Nn.forward_count () in
  let wrapped = pass ~wrap:Layers.wrap ~flight:true runs in
  let nn_forwards = Rlcc.Nn.forward_count () - nn0 in
  let counts = List.map (fun l -> (l, Layers.totals l)) Layers.layers in
  let w0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).major_collections in
  let bare = pass ~wrap:Layers.plain ~flight:true runs in
  let minor_words = Gc.minor_words () -. w0 in
  let major_gcs = (Gc.quick_stat ()).major_collections - g0 in
  let dark = pass ~wrap:Layers.plain ~flight:false runs in
  { wrapped; bare; dark; counts; nn_forwards; minor_words; major_gcs }

let per num den = if den = 0.0 then 0.0 else num /. den

let traced w ~seed ~seconds ~limit =
  let runs, warm, _ = set_up w ~seed ~limit in
  let rounds = repeat ~seconds (fun () -> round runs) in
  let r1 = List.hd rounds in
  let passes = List.concat_map (fun r -> [ r.wrapped; r.bare; r.dark ]) rounds in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 passes in
  let med f = Stats.median (floats f rounds) in
  let layer_s r =
    List.fold_left (fun a (_, (c : Layers.counts)) -> a +. (float_of_int c.ns *. 1e-9)) 0.0 r.counts
  in
  let count name v = m name "count" (float_of_int v) in
  let events = total (fun s -> s.Workloads.events) r1.bare in
  let per_event x = per x (float_of_int events) in
  let netsim_self_s = med (fun r -> r.wrapped.wall_s -. layer_s r) in
  let layer l =
    let c r = List.assoc l r.counts in
    let calls = float_of_int (c r1).calls in
    let self_s = med (fun r -> float_of_int (c r).ns *. 1e-9) in
    let n = Layers.name l in
    [
      m (n ^ ".calls") "count" calls;
      m (n ^ ".self_s") "s" self_s;
      m (n ^ ".ns_per_call") "ns" (per (self_s *. 1e9) calls);
    ]
  in
  (* Exact counters must repeat round after round, like the digests. *)
  let exact r =
    (List.map (fun (_, (c : Layers.counts)) -> (c.calls, c.queries)) r.counts, r.nn_forwards)
  in
  {
    correct =
      failed = 0
      && consistent ~warms:[ warm ] passes
      && List.for_all (fun r -> exact r = exact r1) rounds;
    attempted = List.fold_left (fun a p -> a + Array.length p.run_s) 0 passes;
    failed;
    digest = digest r1.bare;
    metrics =
      [
        count "netsim.events" events;
        m "netsim.events_per_s" "1/s" (per (float_of_int events) (med (fun r -> r.bare.wall_s)));
        m "netsim.self_s" "s" netsim_self_s;
        m "netsim.ns_per_event" "ns" (per_event (netsim_self_s *. 1e9));
        m "netsim.minor_words_per_event" "words" (per_event (med (fun r -> r.minor_words)));
        m "netsim.major_gcs" "count" (med (fun r -> float_of_int r.major_gcs));
        count "netsim.acks" (total (fun s -> s.Workloads.acks) r1.bare);
        count "netsim.losses" (total (fun s -> s.Workloads.losses) r1.bare);
        count "netsim.cca_queries"
          (List.fold_left (fun a (_, (c : Layers.counts)) -> a + c.queries) 0 r1.counts);
        count "netsim.flows_spawned" (total (fun s -> s.Workloads.spawned) r1.bare);
        count "netsim.flows_completed" (total (fun s -> s.Workloads.completed) r1.bare);
      ]
      @ List.concat_map layer Layers.layers
      @ [
          count "rlcc.nn_forwards" r1.nn_forwards;
          m "rlcc.train_s" "s" !Layers.train;
          m "traces.gen_s" "s" !Layers.gen;
          m "obs.flight_s" "s" (med (fun r -> r.bare.wall_s -. r.dark.wall_s));
          m "bench.trace_overhead_frac" "ratio"
            (med (fun r -> per (r.wrapped.wall_s -. r.bare.wall_s) r.bare.wall_s));
        ];
  }

(* ---- output ---- *)

let metrics_json metrics =
  Obs.Json.Obj
    (List.map
       (fun x -> (x.name, Obs.Json.Obj [ ("value", Num x.value); ("unit", Str x.unit) ]))
       metrics)

let result_fields r =
  Obs.Json.
    [
      ("correct", Bool r.correct);
      ("attempted", Num (float_of_int r.attempted));
      ("failed", Num (float_of_int r.failed));
      ("metrics", metrics_json r.metrics);
    ]
