(* Candidate fitness: run the scenario twice at the candidate's knobs —
   once clean, once under the candidate's impairment spec — and score
   the *relative* utility degradation using the paper's utility triple
   (Eq. 1, lib/rlcc/utility.ml). Comparing against a clean run at the
   same knobs means knob mutations only matter through their interaction
   with the impairment, never by starving both legs equally.

   The actual scenario execution is injected as a [runner] so this
   library needs nothing above netsim/faults/libra — the harness (which
   depends on us for exp_adversarial) supplies a runner built on
   Scenario.run_uniform. The impaired leg runs inside a fresh
   Obs.Metrics registry; the fault/queue/monitor counters it collects
   become the [feedback] the engine uses to weight the next
   generation's mutations. *)

type outcome = {
  throughput_bps : float;  (* mean delivered goodput, bytes/s *)
  mean_delay : float;  (* mean packet delay, seconds *)
  loss_rate : float;
}

(* Injected by the caller: run the scenario at [knobs] under [impair]
   (Faults.Spec.empty = clean leg). Must be pure up to its own fixed
   seed so results are position-independent under the pool. *)
type runner = impair:Faults.Spec.t -> Space.knobs -> outcome

(* Counters scraped from the impaired leg's registry. *)
type feedback = {
  offered : float;  (* faults.offered_pkts *)
  impaired : float;  (* faults.impaired_pkts *)
  link_downs : float;  (* faults.link_down_transitions *)
  tail_drops : float;  (* netsim.link.tail_drops *)
  acks : float;  (* netsim.flow.acks *)
}

let no_feedback =
  { offered = 0.0; impaired = 0.0; link_downs = 0.0; tail_drops = 0.0; acks = 0.0 }

let feedback_of_registry reg =
  List.fold_left
    (fun fb (name, kind, _field, value) ->
      if kind <> "counter" then fb
      else
        let v = try float_of_string value with _ -> 0.0 in
        match name with
        | "faults.offered_pkts" -> { fb with offered = fb.offered +. v }
        | "faults.impaired_pkts" -> { fb with impaired = fb.impaired +. v }
        | "faults.link_down_transitions" ->
          { fb with link_downs = fb.link_downs +. v }
        | "netsim.link.tail_drops" -> { fb with tail_drops = fb.tail_drops +. v }
        | "netsim.flow.acks" -> { fb with acks = fb.acks +. v }
        | _ -> fb)
    no_feedback
    (Obs.Metrics.dump reg)

let bps_to_mbps b = b *. 8.0 /. 1e6

(* Paper utility of one leg. The simulator reports a mean delay, not an
   RTT series, so the gradient term uses a standing-queue proxy:
   (mean_delay - delay_ref) / duration, clipped at zero. [delay_ref] is
   the *clean* leg's own mean delay — the clean baseline scores zero
   gradient by definition, and the impaired leg is penalised only for
   the queue growth the impairment adds. (Referencing the propagation
   RTT instead would let a bufferbloating CCA's clean leg drown in its
   own beta * x * dRTT penalty, at which point any throughput-killing
   impairment *raises* utility and the search inverts.) *)
let utility ~delay_ref ~duration (o : outcome) =
  let delay = if Float.is_nan o.mean_delay then delay_ref else o.mean_delay in
  let rtt_gradient =
    Float.max 0.0 (delay -. delay_ref) /. Float.max 1e-9 duration
  in
  Libra.Utility.eval_raw Libra.Utility.default
    ~rate_mbps:(bps_to_mbps o.throughput_bps)
    ~rtt_gradient ~loss_rate:o.loss_rate

type result = {
  cand : Space.candidate;
  u_clean : float;
  u_impaired : float;
  degradation : float;  (* (u_clean - u_impaired) / |u_clean| *)
  feedback : feedback;
}

(* Fitness = relative utility loss vs the clean leg at the same knobs.
   Positive means the impairment hurts; the search maximises this. *)
let degradation ~u_clean ~u_impaired =
  (u_clean -. u_impaired) /. Float.max 1e-6 (Float.abs u_clean)

let evaluate ~(runner : runner) ~duration (cand : Space.candidate) : result =
  let clean = runner ~impair:Faults.Spec.empty cand.Space.knobs in
  let reg = Obs.Metrics.create_registry () in
  let impaired =
    Obs.Metrics.run reg (fun () ->
        runner ~impair:cand.Space.impair cand.Space.knobs)
  in
  let delay_ref =
    if Float.is_nan clean.mean_delay then cand.Space.knobs.Space.rtt
    else clean.mean_delay
  in
  let u_clean = utility ~delay_ref ~duration clean in
  let u_impaired = utility ~delay_ref ~duration impaired in
  {
    cand;
    u_clean;
    u_impaired;
    degradation = degradation ~u_clean ~u_impaired;
    feedback = feedback_of_registry reg;
  }
