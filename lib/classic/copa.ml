(* Copa (Arun & Balakrishnan 2018): steers the sending rate towards
   lambda* = 1 / (delta * d_q), where d_q is the measured queueing delay.
   The window moves by v / (delta * cwnd) per ACK towards the target,
   with velocity doubling while the direction persists. Copa has no
   recovery gate: its loss response is its own, and only the window,
   the RTT estimate, pacing and the embedding come from [Window]. *)

let delta = 0.5

type t = {
  w : Window.t;
  mutable velocity : float;
  mutable direction : int;  (* +1 up, -1 down, 0 undecided *)
  mutable same_direction_rounds : int;
  mutable round_start : float;
  mutable standing_rtt : float;  (* short-window min RTT *)
  mutable standing_reset : float;
}

let on_ack t (ack : Netsim.Cca.ack_info) =
  let w = t.w in
  (* Standing RTT: min over the last srtt/2. *)
  if ack.now -. t.standing_reset > Window.srtt w /. 2.0 then begin
    t.standing_rtt <- ack.rtt;
    t.standing_reset <- ack.now
  end
  else if ack.rtt < t.standing_rtt then t.standing_rtt <- ack.rtt;
  let dq = Float.max 1e-4 (t.standing_rtt -. Window.min_rtt w) in
  let target_rate = 1.0 /. (delta *. dq) in
  (* packets/s *)
  let current_rate = w.cwnd /. Float.max 1e-3 (Window.srtt w) in
  let step = t.velocity /. (delta *. w.cwnd) in
  let dir = if current_rate <= target_rate then 1 else -1 in
  w.cwnd <- Float.max 2.0 (w.cwnd +. (float_of_int dir *. step));
  (* Velocity update once per RTT. *)
  if ack.now -. t.round_start >= Window.srtt w then begin
    t.round_start <- ack.now;
    if dir = t.direction then begin
      t.same_direction_rounds <- t.same_direction_rounds + 1;
      if t.same_direction_rounds >= 3 then t.velocity <- Float.min 1024.0 (t.velocity *. 2.0)
    end
    else begin
      t.direction <- dir;
      t.same_direction_rounds <- 0;
      t.velocity <- 1.0
    end
  end

let on_loss (w : Window.t) (loss : Netsim.Cca.loss_info) =
  match loss.kind with
  | Netsim.Cca.Gap_detected ->
    (* Copa mostly reacts through delay; large loss runs halve. *)
    if loss.lost > 3 then w.cwnd <- Float.max 2.0 (w.cwnd /. 2.0)
  | Netsim.Cca.Timeout -> w.cwnd <- 2.0

let as_cca w =
  let t =
    {
      w;
      velocity = 1.0;
      direction = 0;
      same_direction_rounds = 0;
      round_start = 0.0;
      standing_rtt = infinity;
      standing_reset = 0.0;
    }
  in
  Window.cca ~name:"copa" w ~on_ack:(on_ack t) ~on_loss:(on_loss w)

let make () = as_cca (Window.create ())

let embedded () =
  let w = Window.create () in
  Window.embedded w (as_cca w)
