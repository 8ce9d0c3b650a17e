(* TCP Illinois: loss-based AIMD whose increase step alpha and decrease
   factor beta are modulated by the measured queueing delay -- large
   steps when the queue is empty, cautious ones as delay approaches its
   observed maximum. Named in the paper's Sec. 7 alongside Westwood as
   a classic CCA Libra's guidelines extend to. The delay tracking sits
   over a [Window.t]. *)

let alpha_max = 10.0
let alpha_min = 0.3
let beta_min = 0.125
let beta_max = 0.5

type t = { w : Window.t; mutable max_delay : float (* largest queueing delay seen *) }

let create w = { w; max_delay = 0.0 }

(* Queueing delay as a fraction of the worst seen. *)
let delay_fraction t =
  if t.max_delay <= 1e-6 then 0.0
  else
    let qd = Window.srtt t.w -. Window.min_rtt t.w in
    Float.min 1.0 (Float.max 0.0 (qd /. t.max_delay))

let alpha t =
  (* High step near zero delay, decaying towards alpha_min. *)
  let f = delay_fraction t in
  if f <= 0.1 then alpha_max
  else alpha_max /. (1.0 +. (((alpha_max /. alpha_min) -. 1.0) *. f))

let beta t =
  let f = delay_fraction t in
  beta_min +. ((beta_max -. beta_min) *. f)

let on_ack t (ack : Netsim.Cca.ack_info) =
  let qd = ack.rtt -. Window.min_rtt t.w in
  if qd > t.max_delay then t.max_delay <- qd;
  if Window.recovered t.w ~now:ack.now then Window.grow t.w (alpha t)

let on_loss t (loss : Netsim.Cca.loss_info) =
  let w = t.w in
  if Window.recovered w ~now:loss.now then begin
    (match loss.kind with
    | Netsim.Cca.Gap_detected ->
      w.cwnd <- Float.max 2.0 (w.cwnd *. (1.0 -. beta t));
      w.ssthresh <- w.cwnd
    | Netsim.Cca.Timeout ->
      w.ssthresh <- Float.max 2.0 (w.cwnd /. 2.0);
      w.cwnd <- 2.0);
    Window.enter_recovery w ~now:loss.now
  end

let as_cca t = Window.cca ~name:"illinois" t.w ~on_ack:(on_ack t) ~on_loss:(on_loss t)
let make () = as_cca (create (Window.create ()))

let embedded () =
  let t = create (Window.create ()) in
  Window.embedded t.w (as_cca t)
