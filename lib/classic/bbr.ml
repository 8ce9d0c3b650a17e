(* BBR (Cardwell et al. 2017), model-based: estimate the bottleneck
   bandwidth (windowed max of delivery-rate samples) and the round-trip
   propagation delay (windowed min of RTT samples), and pace at
   gain * btl_bw while capping inflight at cwnd_gain * BDP.

   This is BBRv1's state machine: STARTUP (2.885x gain until the
   bandwidth estimate plateaus), DRAIN (inverse gain until inflight fits
   one BDP), PROBE_BW (the 8-phase gain cycle 1.25, 0.75, 1 x 6), and a
   periodic PROBE_RTT that shrinks the window to refresh the RTT floor. *)

type mode = Startup | Drain | Probe_bw | Probe_rtt

let high_gain = 2.885
let probe_gains = [| 1.25; 0.75; 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 |]
let cwnd_gain = 2.0
let bw_window = 2.0 (* seconds of max-filter history *)
let rtprop_window = 10.0
let probe_rtt_interval = 10.0
let probe_rtt_duration = 0.2

type t = {
  bw_filter : Netsim.Cca.Windowed_max.wmax;
  rtt_filter : Netsim.Cca.Windowed_max.wmax;  (* stores -rtt: min filter *)
  mutable mode : mode;
  mutable full_bw : float;
  mutable full_bw_count : int;
  mutable last_round_at : float;
  mutable cycle_idx : int;
  mutable cycle_start : float;
  mutable probe_rtt_done_at : float;
  mutable last_probe_rtt_at : float;
  mutable inflight_pkts : int;
  rtt : Netsim.Cca.Rtt_tracker.tracker;
}

let create () =
  {
    bw_filter = Netsim.Cca.Windowed_max.create ~window:bw_window;
    rtt_filter = Netsim.Cca.Windowed_max.create ~window:rtprop_window;
    mode = Startup;
    full_bw = 0.0;
    full_bw_count = 0;
    last_round_at = 0.0;
    cycle_idx = 0;
    cycle_start = 0.0;
    probe_rtt_done_at = 0.0;
    last_probe_rtt_at = 0.0;
    inflight_pkts = 0;
    rtt = Netsim.Cca.Rtt_tracker.create ();
  }

let btl_bw t ~now = Netsim.Cca.Windowed_max.get t.bw_filter ~now

let rtprop t ~now =
  let neg = Netsim.Cca.Windowed_max.get t.rtt_filter ~now in
  if neg = 0.0 then Netsim.Cca.Rtt_tracker.min_rtt t.rtt else -.neg

let bdp_pkts t ~now =
  let bw = btl_bw t ~now and rt = rtprop t ~now in
  Float.max 4.0 (bw *. rt /. Window.mss)

let mode t = t.mode

let pacing_gain t ~now =
  match t.mode with
  | Startup -> high_gain
  | Drain -> 1.0 /. high_gain
  | Probe_bw ->
    ignore now;
    probe_gains.(t.cycle_idx)
  | Probe_rtt -> 1.0

let advance_cycle t ~now =
  if now -. t.cycle_start >= rtprop t ~now then begin
    t.cycle_idx <- (t.cycle_idx + 1) mod Array.length probe_gains;
    t.cycle_start <- now
  end

let check_full_pipe t ~now =
  (* Once per RTT: did the bandwidth estimate keep growing 25%? *)
  if now -. t.last_round_at >= rtprop t ~now then begin
    t.last_round_at <- now;
    let bw = btl_bw t ~now in
    if bw >= t.full_bw *. 1.25 then begin
      t.full_bw <- bw;
      t.full_bw_count <- 0
    end
    else begin
      t.full_bw_count <- t.full_bw_count + 1;
      if t.full_bw_count >= 3 then begin
        t.mode <- Drain;
        t.full_bw_count <- 0
      end
    end
  end

let on_ack t (ack : Netsim.Cca.ack_info) =
  Netsim.Cca.Rtt_tracker.observe t.rtt ack.rtt;
  t.inflight_pkts <- ack.inflight;
  Netsim.Cca.Windowed_max.observe t.bw_filter ~now:ack.now ack.rate_sample;
  Netsim.Cca.Windowed_max.observe t.rtt_filter ~now:ack.now (-.ack.rtt);
  (match t.mode with
  | Startup -> check_full_pipe t ~now:ack.now
  | Drain ->
    if float_of_int ack.inflight <= bdp_pkts t ~now:ack.now then begin
      t.mode <- Probe_bw;
      t.cycle_idx <- 2;
      (* start in a cruise phase *)
      t.cycle_start <- ack.now;
      t.last_probe_rtt_at <- ack.now
    end
  | Probe_bw ->
    advance_cycle t ~now:ack.now;
    if ack.now -. t.last_probe_rtt_at >= probe_rtt_interval then begin
      t.mode <- Probe_rtt;
      t.probe_rtt_done_at <- ack.now +. probe_rtt_duration
    end
  | Probe_rtt ->
    if ack.now >= t.probe_rtt_done_at then begin
      t.mode <- Probe_bw;
      t.cycle_start <- ack.now;
      t.last_probe_rtt_at <- ack.now
    end)

(* BBR does not treat individual losses as a congestion signal; only a
   timeout resets it conservatively. *)
let on_loss t (loss : Netsim.Cca.loss_info) =
  match loss.kind with
  | Netsim.Cca.Gap_detected -> ()
  | Netsim.Cca.Timeout ->
    t.mode <- Startup;
    t.full_bw <- 0.0;
    t.full_bw_count <- 0

let pacing t ~now =
  let bw = btl_bw t ~now in
  let bw =
    if bw <= 0.0 then
      (* No samples yet: initial window over the first RTT estimate. *)
      10.0 *. Window.mss /. 0.1
    else bw
  in
  pacing_gain t ~now *. bw

let cwnd t ~now =
  match t.mode with
  | Probe_rtt -> 4.0
  | Startup | Drain | Probe_bw -> cwnd_gain *. bdp_pkts t ~now

let as_cca t =
  {
    Netsim.Cca.name = "bbr";
    on_ack = on_ack t;
    on_loss = on_loss t;
    on_send = (fun _ -> ());
    pacing_rate = (fun ~now -> pacing t ~now);
    cwnd = (fun ~now -> cwnd t ~now);
  }

let make () = as_cca (create ())

(* Sec. 4.3: Libra inherits the first 3 RTTs of BBR's probing loop as
   its exploration stage. Setting a rate seeds the bandwidth filter so
   pacing restarts from the imposed operating point. *)
let embedded () =
  let t = create () in
  {
    Embedded.cca = as_cca t;
    get_rate = (fun ~now -> pacing t ~now);
    set_rate =
      (fun ~now rate ->
        Netsim.Cca.Windowed_max.reset t.bw_filter;
        Netsim.Cca.Windowed_max.observe t.bw_filter ~now
          (rate /. pacing_gain t ~now));
    exploration_rtts = 3.0;
  }
