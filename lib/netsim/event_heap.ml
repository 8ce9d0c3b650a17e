(* Binary min-heap of timed events.

   Every entry carries a ticket, a sequence number taken from the
   heap's counter, and events firing at equal times pop in ticket
   order; this keeps simulations deterministic. [push] takes the next
   ticket; [ticket] takes one without pushing and [push_ticket] pushes
   under it later, ordered among the queued entries like any other (a
   lazily moved timer relies on this: see Sim's ticket contract).

   This is the simulator's hottest structure (every packet send, ACK,
   service completion and timer is one push/pop), so it is laid out
   struct-of-arrays: the timestamps live in a flat [float array]
   (unboxed loads and stores), the tickets and the events in plain int
   arrays. An event is an int kind -- an index into the simulator's
   handler table -- plus two int operands, typically a flow handle and
   a version or sequence number; no event carries a closure, and no
   store needs the write barrier.

   Pushes go through a one-slot staging cell filled by [@inline]
   wrappers, so the timestamp never crosses a function boundary as a
   (boxed) float argument; pops land in a scratch slot read back through
   [@inline] accessors. Neither operation touches the minor heap. *)

type t = {
  (* parallel slots 0 .. size-1 *)
  mutable times : float array;
  mutable seqs : int array;  (* tickets *)
  mutable kinds : int array;
  mutable pa : int array;  (* operand a *)
  mutable pb : int array;  (* operand b *)
  mutable size : int;
  mutable next_seq : int;  (* next ticket *)
  (* staging cell for the entry being pushed (or sifted down) *)
  st_time : float array;  (* one cell; flat store keeps the time unboxed *)
  mutable st_kind : int;
  mutable st_a : int;
  mutable st_b : int;
  (* scratch slot holding the most recently popped entry *)
  sc_time : float array;
  mutable sc_seq : int;
  mutable sc_kind : int;
  mutable sc_a : int;
  mutable sc_b : int;
}

let create () =
  {
    times = Array.make 256 0.0;
    seqs = Array.make 256 0;
    kinds = Array.make 256 0;
    pa = Array.make 256 0;
    pb = Array.make 256 0;
    size = 0;
    next_seq = 0;
    st_time = [| 0.0 |];
    st_kind = 0;
    st_a = 0;
    st_b = 0;
    sc_time = [| 0.0 |];
    sc_seq = 0;
    sc_kind = 0;
    sc_a = 0;
    sc_b = 0;
  }

let size t = t.size

let is_empty t = t.size = 0

exception Empty

let[@inline] top_time t = if t.size = 0 then raise Empty else t.times.(0)

let[@inline] ticket t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let reserve t n =
  let cap = Array.length t.times in
  if n > cap then begin
    let ncap =
      let c = ref cap in
      while !c < n do
        c := 2 * !c
      done;
      !c
    in
    let blit_f a =
      let b = Array.make ncap 0.0 in
      Array.blit a 0 b 0 t.size;
      b
    in
    let blit_i a =
      let b = Array.make ncap 0 in
      Array.blit a 0 b 0 t.size;
      b
    in
    t.times <- blit_f t.times;
    t.seqs <- blit_i t.seqs;
    t.kinds <- blit_i t.kinds;
    t.pa <- blit_i t.pa;
    t.pb <- blit_i t.pb
  end

let grow t = reserve t (2 * Array.length t.times)

(* Copy slot [src] over slot [dst]. *)
let[@inline] copy_slot t src dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.kinds.(dst) <- t.kinds.(src);
  t.pa.(dst) <- t.pa.(src);
  t.pb.(dst) <- t.pb.(src)

(* Write the staged entry (sequence number [seq]) into slot [i]. *)
let[@inline] write_staged t i seq =
  t.times.(i) <- t.st_time.(0);
  t.seqs.(i) <- seq;
  t.kinds.(i) <- t.st_kind;
  t.pa.(i) <- t.st_a;
  t.pb.(i) <- t.st_b

(* Move the staged entry up from hole [i] until its parent is not later. *)
let rec sift_up t seq i =
  if i = 0 then write_staged t 0 seq
  else begin
    let p = (i - 1) / 2 in
    let st = t.st_time.(0) in
    let pt = t.times.(p) in
    if st < pt || (st = pt && seq < t.seqs.(p)) then begin
      copy_slot t p i;
      sift_up t seq p
    end
    else write_staged t i seq
  end

let push_staged t seq =
  if t.size = Array.length t.times then grow t;
  sift_up t seq t.size;
  t.size <- t.size + 1

let[@inline] push_ticket t ~time ~ticket ~kind ~a ~b =
  t.st_time.(0) <- time;
  t.st_kind <- kind;
  t.st_a <- a;
  t.st_b <- b;
  push_staged t ticket

let[@inline] push t ~time ~kind ~a ~b = push_ticket t ~time ~ticket:(ticket t) ~kind ~a ~b

(* Move the staged entry down from hole [i], pulling the earlier child
   up. *)
let rec sift_down t seq i =
  let l = (2 * i) + 1 in
  if l >= t.size then write_staged t i seq
  else begin
    let r = l + 1 in
    let c =
      if
        r < t.size
        && (t.times.(r) < t.times.(l)
           || (t.times.(r) = t.times.(l) && t.seqs.(r) < t.seqs.(l)))
      then r
      else l
    in
    let st = t.st_time.(0) in
    let ct = t.times.(c) in
    if ct < st || (ct = st && t.seqs.(c) < seq) then begin
      copy_slot t c i;
      sift_down t seq c
    end
    else write_staged t i seq
  end

(* Pop the root into the scratch slot; no allocation. *)
let pop_into t =
  if t.size = 0 then raise Empty;
  t.sc_time.(0) <- t.times.(0);
  t.sc_seq <- t.seqs.(0);
  t.sc_kind <- t.kinds.(0);
  t.sc_a <- t.pa.(0);
  t.sc_b <- t.pb.(0);
  t.size <- t.size - 1;
  let n = t.size in
  if n > 0 then begin
    (* Stage the last entry and sift it down from the root. *)
    t.st_time.(0) <- t.times.(n);
    t.st_kind <- t.kinds.(n);
    t.st_a <- t.pa.(n);
    t.st_b <- t.pb.(n);
    sift_down t t.seqs.(n) 0
  end

let[@inline] scratch_time t = t.sc_time.(0)
let[@inline] scratch_seq t = t.sc_seq
let[@inline] scratch_kind t = t.sc_kind
let[@inline] scratch_a t = t.sc_a
let[@inline] scratch_b t = t.sc_b
