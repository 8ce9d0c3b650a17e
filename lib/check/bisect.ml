(* Divergence bisection over two event streams that should be
   byte-identical (pool 1 vs N, resume vs clean, seed vs seed).

   Each stream is reduced to a chain of running digests: d(0) =
   MD5(line 0), d(i) = MD5(d(i-1) ^ line i). Chained digests make
   "the prefixes up to i are equal" a monotone predicate of i —
   once the chains differ they differ forever — so the *first*
   diverging event is found by binary search over the digest arrays
   in O(log n) comparisons, and comparing two runs costs two linear
   digest passes however long the traces are. (Equal digests mean
   equal prefixes up to MD5 collision, which is beyond what a
   determinism regression can plausibly manufacture.) *)

type result =
  | Identical of int  (* both streams equal, with this many events *)
  | Diverged of {
      index : int;  (* 0-based index of the first differing event *)
      a : string option;  (* line in stream A; None = A ended here *)
      b : string option;
    }

let digest_chain lines =
  let n = Array.length lines in
  let d = Array.make n "" in
  let prev = ref "" in
  for i = 0 to n - 1 do
    prev := Digest.string (!prev ^ lines.(i));
    d.(i) <- !prev
  done;
  d

let opt_line lines i = if i < Array.length lines then Some lines.(i) else None

let first_divergence a b =
  let da = digest_chain a and db = digest_chain b in
  let n = min (Array.length a) (Array.length b) in
  (* prefix_equal i: streams agree on lines 0..i-1 *)
  let prefix_equal i = i = 0 || String.equal da.(i - 1) db.(i - 1) in
  if prefix_equal n then
    if Array.length a = Array.length b then Identical n
    else Diverged { index = n; a = opt_line a n; b = opt_line b n }
  else begin
    (* invariant: prefix_equal lo, not (prefix_equal hi) *)
    let lo = ref 0 and hi = ref n in
    while !hi - !lo > 1 do
      let mid = !lo + ((!hi - !lo) / 2) in
      if prefix_equal mid then lo := mid else hi := mid
    done;
    Diverged { index = !lo; a = opt_line a !lo; b = opt_line b !lo }
  end

(* ---- the one-screen report ---- *)

let render_line b tag = function
  | Some line -> Buffer.add_string b (Printf.sprintf "  %s: %s\n" tag line)
  | None -> Buffer.add_string b (Printf.sprintf "  %s: <end of stream>\n" tag)

(* The surrounding window: events [index-radius .. index+radius] of
   each stream, the diverging index marked with '>'. *)
let render_window b ~tag ~index ~radius lines =
  Buffer.add_string b (Printf.sprintf "-- %s window --\n" tag);
  let lo = max 0 (index - radius) in
  let hi = min (Array.length lines - 1) (index + radius) in
  if lo > hi then Buffer.add_string b "  <empty stream>\n"
  else
    for i = lo to hi do
      let marker = if i = index then '>' else ' ' in
      Buffer.add_string b (Printf.sprintf " %c %6d  %s\n" marker i lines.(i))
    done

let report ?(radius = 3) ~label_a ~label_b a b result =
  let buf = Buffer.create 1024 in
  (match result with
  | Identical n ->
    Buffer.add_string buf
      (Printf.sprintf "byte-identical: %d events (%s vs %s)\n" n label_a label_b)
  | Diverged { index; a = la; b = lb } ->
    Buffer.add_string buf
      (Printf.sprintf "DIVERGED at event %d (%s vs %s)\n" index label_a label_b);
    render_line buf "A" la;
    render_line buf "B" lb;
    render_window buf ~tag:("A: " ^ label_a) ~index ~radius a;
    render_window buf ~tag:("B: " ^ label_b) ~index ~radius b);
  Buffer.contents buf
