(* Synthetic wide-area paths standing in for the paper's live-Internet
   (Amazon EC2) experiments.

   The paper attributes the inter-continental results to "higher
   stochastic loss rate, different queue management schemes and traffic
   shaping schemes unknown to the end-points". We model a WAN path as a
   bottleneck whose capacity wobbles (background cross-traffic), with
   non-negligible stochastic loss and a long base RTT for the
   inter-continental case. *)

type path = {
  name : string;
  rate : Rate.t;
  rtt : float;  (* seconds *)
  loss_p : float;
  buffer_bytes : int;
}

(* Background cross-traffic takes a slowly varying bite out of a fixed
   pipe. Each preset draws its wobble from its own fixed seed. *)
let wobbly ~seed ~name ~mbps ~rel_amp ~period ~duration () =
  let grain = 0.05 in
  let rng = Netsim.Rng.create (seed * 104729) in
  let steps = max 1 (int_of_float (ceil (duration /. grain))) in
  let phase = Netsim.Rng.uniform rng ~lo:0.0 ~hi:(2.0 *. Float.pi) in
  let samples =
    Array.init steps (fun i ->
        let time = float_of_int i *. grain in
        let swing = rel_amp *. sin (((2.0 *. Float.pi *. time) /. period) +. phase) in
        let noise = Netsim.Rng.gaussian rng ~mu:0.0 ~sigma:(0.05 *. mbps) in
        let v = Float.max (0.15 *. mbps) ((mbps *. (1.0 -. (rel_amp /. 2.0) +. swing)) +. noise) in
        Netsim.Units.mbps_to_bps v)
  in
  Rate.of_samples ~name ~grain samples

let inter_continental ~duration () =
  {
    name = "inter-continental";
    rate = wobbly ~seed:3 ~name:"wan-inter" ~mbps:60.0 ~rel_amp:0.35 ~period:7.0 ~duration ();
    rtt = 0.180;
    loss_p = 0.008;
    buffer_bytes = Netsim.Units.kb 400;
  }

let intra_continental ~duration () =
  {
    name = "intra-continental";
    rate = wobbly ~seed:4 ~name:"wan-intra" ~mbps:90.0 ~rel_amp:0.15 ~period:11.0 ~duration ();
    rtt = 0.040;
    loss_p = 0.0008;
    buffer_bytes = Netsim.Units.kb 600;
  }

(* Sec. 7 ("what if we apply Libra to other networks?") targets: a GEO
   satellite path -- long RTT and high stochastic loss -- and a 5G
   mmWave-style link with abrupt capacity swings (blockage events). *)
let satellite ~duration () =
  {
    name = "satellite";
    rate = wobbly ~seed:6 ~name:"sat" ~mbps:40.0 ~rel_amp:0.1 ~period:20.0 ~duration ();
    rtt = 0.560;
    loss_p = 0.02;
    buffer_bytes = Netsim.Units.mb 3;
  }

let five_g ~duration () =
  (* Alternate between line-of-sight (fast) and blocked (slow) regimes
     every few seconds -- the abrupt link-capacity fluctuation the
     paper's discussion singles out. *)
  let grain = 0.02 in
  let rng = Netsim.Rng.create (7 * 52561) in
  let steps = max 1 (int_of_float (ceil (duration /. grain))) in
  let samples = Array.make steps 0.0 in
  let regime_fast = ref true in
  let regime_left = ref 0.0 in
  for i = 0 to steps - 1 do
    if !regime_left <= 0.0 then begin
      regime_fast := not !regime_fast;
      regime_left := Netsim.Rng.uniform rng ~lo:1.0 ~hi:5.0
    end;
    regime_left := !regime_left -. grain;
    let base = if !regime_fast then 180.0 else 25.0 in
    let noise = Netsim.Rng.gaussian rng ~mu:0.0 ~sigma:(0.08 *. base) in
    samples.(i) <- Netsim.Units.mbps_to_bps (Float.max 5.0 (base +. noise))
  done;
  {
    name = "5g";
    rate = Rate.of_samples ~name:"5g" ~grain samples;
    rtt = 0.015;
    loss_p = 0.001;
    buffer_bytes = Netsim.Units.kb 500;
  }
