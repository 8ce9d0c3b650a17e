(* Hierarchical host-time spans: a calling-context tree per lane.

   Each [run] opens a lane context holding a tree of aggregation nodes
   (one node per distinct probe per call path) and an explicit open-span
   stack stored in growable parallel arrays, so entering and leaving a
   span allocates nothing once the node exists. Host measurements are
   bechamel's monotonic clock (ns, noalloc) and [Gc.counters] word
   counts; both are recorded as deltas on exit.

   Determinism: which *host numbers* a span records depends on the
   machine and scheduling, so exports split in two — [structure]
   (names, nesting, counts; pool-size deterministic, tested in
   test_exec) and [lanes_json]/[to_json] (adds durations + GC words;
   for human and perf_report consumption only). *)

(* ---- global probe table ---- *)

type probe = int

let table_lock = Mutex.create ()
let names : string array ref = ref (Array.make 16 "")
let by_name : (string, int) Hashtbl.t = Hashtbl.create 16
let n_probes = ref 0

let probe name =
  Mutex.lock table_lock;
  let id =
    match Hashtbl.find_opt by_name name with
    | Some id -> id
    | None ->
      if !n_probes = Array.length !names then begin
        let bigger = Array.make (2 * !n_probes) "" in
        Array.blit !names 0 bigger 0 !n_probes;
        names := bigger
      end;
      let id = !n_probes in
      !names.(id) <- name;
      Hashtbl.add by_name name id;
      n_probes := id + 1;
      id
  in
  Mutex.unlock table_lock;
  id

let probe_name id = !names.(id)

(* ---- the calling-context tree ---- *)

type node = {
  nprobe : int;
  mutable count : int;
  mutable total_ns : int;
  mutable minor_w : float;  (* minor words allocated inside the span *)
  mutable major_w : float;
  mutable kids : node list;  (* newest-first; export reverses *)
}

let fresh_node p = { nprobe = p; count = 0; total_ns = 0; minor_w = 0.0; major_w = 0.0; kids = [] }

type lane_ctx = {
  lane : int;
  root : node;  (* sentinel; its kids are the top-level spans *)
  mutable depth : int;
  mutable frames : node array;
  mutable t0 : int array;  (* monotonic ns at entry *)
  mutable minor0 : float array;
  mutable major0 : float array;
}

let fresh_lane lane =
  {
    lane;
    root = fresh_node (-1);
    depth = 0;
    frames = Array.make 16 (fresh_node (-1));
    t0 = Array.make 16 0;
    minor0 = Array.make 16 0.0;
    major0 = Array.make 16 0.0;
  }

type t = { lock : Mutex.t; mutable lanes : lane_ctx list (* newest first *) }

let create () = { lock = Mutex.create (); lanes = [] }

(* ---- the ambient recorder ---- *)

let n_active = Atomic.make 0

let[@inline] enabled () = Atomic.get n_active > 0

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let grow_stack c =
  let cap = Array.length c.frames in
  let bigger_f = Array.make (2 * cap) c.root in
  let bigger_t = Array.make (2 * cap) 0 in
  let bigger_mi = Array.make (2 * cap) 0.0 in
  let bigger_ma = Array.make (2 * cap) 0.0 in
  Array.blit c.frames 0 bigger_f 0 cap;
  Array.blit c.t0 0 bigger_t 0 cap;
  Array.blit c.minor0 0 bigger_mi 0 cap;
  Array.blit c.major0 0 bigger_ma 0 cap;
  c.frames <- bigger_f;
  c.t0 <- bigger_t;
  c.minor0 <- bigger_mi;
  c.major0 <- bigger_ma

let open_frame c = if c.depth = 0 then c.root else c.frames.(c.depth - 1)

let enter c p =
  let parent = open_frame c in
  let node =
    match List.find_opt (fun n -> n.nprobe = p) parent.kids with
    | Some n -> n
    | None ->
      let n = fresh_node p in
      parent.kids <- n :: parent.kids;
      n
  in
  node.count <- node.count + 1;
  if c.depth = Array.length c.frames then grow_stack c;
  (* [Gc.counters], not [Gc.quick_stat]: on OCaml 5 the latter only
     reflects this domain's allocations after a GC slice, so deltas
     over short spans would read zero. *)
  let minor, _, major = Gc.counters () in
  c.frames.(c.depth) <- node;
  c.minor0.(c.depth) <- minor;
  c.major0.(c.depth) <- major;
  c.t0.(c.depth) <- now_ns ();
  c.depth <- c.depth + 1

let leave c =
  let dt = now_ns () in
  c.depth <- c.depth - 1;
  let node = c.frames.(c.depth) in
  let minor, _, major = Gc.counters () in
  node.total_ns <- node.total_ns + (dt - c.t0.(c.depth));
  node.minor_w <- node.minor_w +. (minor -. c.minor0.(c.depth));
  node.major_w <- node.major_w +. (major -. c.major0.(c.depth))

(* Add [src]'s tree into [into] by probe along matching call paths,
   keeping [into]'s child order; [src] is never mutated. *)
let rec merge_node ~into src =
  into.count <- into.count + src.count;
  into.total_ns <- into.total_ns + src.total_ns;
  into.minor_w <- into.minor_w +. src.minor_w;
  into.major_w <- into.major_w +. src.major_w;
  List.iter
    (fun skid ->
      let dkid =
        match List.find_opt (fun k -> k.nprobe = skid.nprobe) into.kids with
        | Some dkid -> dkid
        | None ->
          let dkid = fresh_node skid.nprobe in
          into.kids <- dkid :: into.kids;
          dkid
      in
      merge_node ~into:dkid skid)
    (List.rev src.kids)

(* A pool task without a recorder of its own records into a fresh
   context; the join grafts its tree under the caller's open span (the
   [pool.map] frame), where the task's spans nest when it runs inline. *)
let slot =
  Ambient.slot ~live:n_active ~observing:true
    (Ambient.Split
       {
         fork = (fun c -> fresh_lane c.lane);
         join = (fun c child -> merge_node ~into:(open_frame c) child.root);
       })

let timed p f =
  if Atomic.get n_active = 0 then f ()
  else
    match Ambient.get slot with
    | None -> f ()
    | Some c ->
      enter c p;
      Fun.protect ~finally:(fun () -> leave c) f

let run t ?(lane = 0) f =
  let lc = fresh_lane lane in
  Mutex.protect t.lock (fun () -> t.lanes <- lc :: t.lanes);
  Ambient.with_ slot (Some lc) f

(* ---- export ---- *)

(* Lanes in ascending lane order; contexts sharing a lane id (several
   [run]s with the same lane) are merged by probe along matching call
   paths, preserving the first context's child order. *)

let merged_lanes t =
  let lanes = Mutex.protect t.lock (fun () -> List.rev t.lanes) in
  let sorted = List.stable_sort (fun a b -> compare a.lane b.lane) lanes in
  let out = ref [] in
  List.iter
    (fun lc ->
      let root =
        match List.assoc_opt lc.lane !out with
        | Some root -> root
        | None ->
          let root = fresh_node (-1) in
          out := !out @ [ (lc.lane, root) ];
          root
      in
      merge_node ~into:root lc.root)
    sorted;
  !out

let ns_to_s ns = float_of_int ns /. 1e9

let rec node_json n =
  let kids = List.rev n.kids in
  let children_total = List.fold_left (fun a k -> a + k.total_ns) 0 kids in
  let self_ns = max 0 (n.total_ns - children_total) in
  Json.Obj
    [
      ("name", Json.Str (probe_name n.nprobe));
      ("count", Json.Num (float_of_int n.count));
      ("total_s", Json.Num (ns_to_s n.total_ns));
      ("self_s", Json.Num (ns_to_s self_ns));
      ("minor_words", Json.Num n.minor_w);
      ("major_words", Json.Num n.major_w);
      ("children", Json.List (List.map node_json kids));
    ]

let lanes_json t =
  List.map (fun (lane, root) -> (lane, Json.List (List.map node_json (List.rev root.kids)))) (merged_lanes t)

let structure t =
  let b = Buffer.create 512 in
  let rec walk indent n =
    Buffer.add_string b
      (Printf.sprintf "%s%s x%d\n" (String.make indent ' ') (probe_name n.nprobe) n.count);
    List.iter (walk (indent + 2)) (List.rev n.kids)
  in
  List.iter
    (fun (lane, root) ->
      Buffer.add_string b (Printf.sprintf "lane %d\n" lane);
      List.iter (walk 2) (List.rev root.kids))
    (merged_lanes t);
  Buffer.contents b
