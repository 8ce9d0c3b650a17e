(* The congestion-control interface.

   Every algorithm in the repository -- classic, learning-based, and the
   Libra framework itself -- is a value of type [t]: a bundle of
   callbacks invoked by the sending endpoint, plus the two knobs the
   sender obeys (pacing rate and congestion window).

   Window-based schemes (CUBIC, Reno, ...) expose a finite [cwnd] and an
   over-provisioned pacing rate so that sending stays ACK-clocked;
   rate-based schemes (Libra, PCC) expose a finite [pacing_rate] and a
   generous window. *)

type ack_info = {
  now : float;
  seq : int;  (* sequence number of the acknowledged packet *)
  rtt : float;  (* RTT measured by the packet this ACK covers, seconds *)
  acked_bytes : int;  (* bytes newly acknowledged *)
  inflight : int;  (* packets still in flight after this ACK *)
  delivered_bytes : int;  (* cumulative delivered bytes for the flow *)
  rate_sample : float;  (* delivery-rate sample in bytes/s *)
  newly_lost : int;  (* packets declared lost while processing this ACK *)
}

type loss_kind = Gap_detected | Timeout

type loss_info = {
  now : float;
  lost : int;  (* number of packets declared lost *)
  kind : loss_kind;
  inflight : int;  (* packets still in flight after the loss *)
}

type send_info = { now : float; seq : int; size : int; inflight : int }

type t = {
  name : string;
  on_ack : ack_info -> unit;
  on_loss : loss_info -> unit;
  on_send : send_info -> unit;
  pacing_rate : now:float -> float;  (* bytes/s *)
  cwnd : now:float -> float;  (* packets *)
}

let no_window = 1e9

(* Inflight cap for rate-based schemes: one BDP plus a bounded slack of
   queueing, so an overshooting rate cannot build an unbounded queue
   before losses feed back. *)
let rate_cwnd ~rate ~min_rtt =
  Float.max 4.0 (rate *. (min_rtt +. 0.25) /. float_of_int Units.mtu)

(* An unresponsive constant-bit-rate source; models UDP cross traffic. *)
let constant_rate rate_bps =
  {
    name = "cbr";
    on_ack = (fun _ -> ());
    on_loss = (fun _ -> ());
    on_send = (fun _ -> ());
    pacing_rate = (fun ~now:_ -> rate_bps);
    cwnd = (fun ~now:_ -> no_window);
  }

(* Exponentially weighted moving averages of RTT, as senders keep them. *)
module Rtt_tracker = struct
  type tracker = {
    mutable srtt : float;
    mutable rttvar : float;
    mutable min_rtt : float;
    mutable samples : int;
  }

  let create () =
    { srtt = 0.0; rttvar = 0.0; min_rtt = infinity; samples = 0 }

  let observe t rtt =
    if t.samples = 0 then begin
      t.srtt <- rtt;
      t.rttvar <- rtt /. 2.0
    end
    else begin
      let alpha = 0.125 and beta = 0.25 in
      t.rttvar <- ((1.0 -. beta) *. t.rttvar) +. (beta *. Float.abs (t.srtt -. rtt));
      t.srtt <- ((1.0 -. alpha) *. t.srtt) +. (alpha *. rtt)
    end;
    if rtt < t.min_rtt then t.min_rtt <- rtt;
    t.samples <- t.samples + 1

  let srtt t = if t.samples = 0 then 0.1 else t.srtt
  let min_rtt t = if t.samples = 0 then 0.1 else t.min_rtt
  let rttvar t = t.rttvar
  let samples t = t.samples
end

(* Windowed maximum, used by BBR for max-bandwidth (and, negated,
   min-RTT) filtering. A monotonic deque gives O(1) amortised updates:
   the front holds the window maximum, entries dominated by a newer,
   larger sample are discarded from the back, and stale entries expire
   from the front. A naive list filter here is O(acks) per ACK and
   turns BBR quadratic on long flows. *)
module Windowed_max = struct
  type sample = { at : float; v : float }

  type wmax = {
    window : float;
    mutable entries : sample array;  (* ring buffer *)
    mutable head : int;  (* index of the front *)
    mutable len : int;
  }

  let dummy = { at = 0.0; v = 0.0 }

  let create ~window = { window; entries = Array.make 64 dummy; head = 0; len = 0 }

  let idx t i = (t.head + i) mod Array.length t.entries

  let grow t =
    let entries = Array.make (2 * Array.length t.entries) dummy in
    for i = 0 to t.len - 1 do
      entries.(i) <- t.entries.(idx t i)
    done;
    t.entries <- entries;
    t.head <- 0

  let expire t ~now =
    while t.len > 0 && now -. t.entries.(t.head).at > t.window do
      t.head <- (t.head + 1) mod Array.length t.entries;
      t.len <- t.len - 1
    done

  let reset t =
    t.head <- 0;
    t.len <- 0

  let observe t ~now v =
    expire t ~now;
    (* Drop entries the new sample dominates (older and not larger). *)
    while t.len > 0 && t.entries.(idx t (t.len - 1)).v <= v do
      t.len <- t.len - 1
    done;
    if t.len = Array.length t.entries then grow t;
    t.entries.(idx t t.len) <- { at = now; v };
    t.len <- t.len + 1

  let get t ~now =
    expire t ~now;
    if t.len = 0 then 0.0 else t.entries.(t.head).v
end
