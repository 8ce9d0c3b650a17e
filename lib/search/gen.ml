(* Random `Faults.Spec.t` generator: arbitrary channel/shaper combos
   with every parameter drawn from its valid range, qcheck-style but
   driven by the simulator's explicit {!Netsim.Rng.t} so the engine's
   add-channel mutation and the property tests share one generator
   (test/test_search.ml wraps it in a QCheck arbitrary via the seed).

   All floats are {!Space.quantize}d, so every generated spec satisfies
   `Faults.Spec.of_string (to_string s) = Ok s` structurally — the
   parse/print round-trip property the tests enforce. *)

module Rng = Netsim.Rng
module Spec = Faults.Spec
module Channel = Faults.Channel

(* Valid parameter ranges, shared with the mutator's clamping. *)
let r_p_gb = (0.001, 0.2)
let r_p_bg = (0.05, 0.9)
let r_p_good = (0.0, 0.15)
let r_p_bad = (0.1, 1.0)
let r_p = (0.001, 0.35)  (* bernoulli / reorder / dup / corrupt *)
let max_depth = 8
let r_max_hold = (0.01, 1.0)
let r_jitter = (0.0005, 0.1)
let r_window_start = (0.0, 12.0)
let r_window_len = (0.5, 10.0)
let r_outage_at = (0.0, 12.0)
let r_outage_dur = (0.1, 5.0)
let r_clamp_factor = (0.05, 0.9)
let r_flap_period = (0.5, 12.0)
let r_flap_duty = (0.3, 0.98)

let draw rng (lo, hi) = Space.quantize (Rng.uniform rng ~lo ~hi)

let channel_kind rng =
  match Rng.int rng 6 with
  | 0 ->
    let p_good = if Rng.bool rng ~p:0.25 then draw rng r_p_good else 0.0 in
    Channel.Gilbert
      {
        p_gb = draw rng r_p_gb;
        p_bg = draw rng r_p_bg;
        p_good;
        p_bad = draw rng r_p_bad;
      }
  | 1 -> Channel.Bernoulli { p = draw rng r_p }
  | 2 ->
    Channel.Reorder
      {
        p = draw rng r_p;
        depth = 1 + Rng.int rng max_depth;
        max_hold = draw rng r_max_hold;
      }
  | 3 -> Channel.Duplicate { p = draw rng r_p }
  | 4 -> Channel.Corrupt { p = draw rng r_p }
  | _ -> Channel.Jitter { max_delay = draw rng r_jitter }

(* A window with probability 0.3, else the whole run. [until] is
   re-quantized after the sum so the stored float prints exactly. *)
let window rng =
  if Rng.bool rng ~p:0.3 then begin
    let from_ = draw rng r_window_start in
    (from_, Space.quantize (from_ +. draw rng r_window_len))
  end
  else (0.0, infinity)

let channel_item rng =
  let from_, until = window rng in
  { Spec.kind = channel_kind rng; from_; until }

let shaper rng =
  match Rng.int rng 3 with
  | 0 -> Spec.Outage { at = draw rng r_outage_at; dur = draw rng r_outage_dur }
  | 1 ->
    let from_, until = window rng in
    Spec.Clamp { from_; until; factor = draw rng r_clamp_factor }
  | _ ->
    let from_, until = window rng in
    Spec.Flap
      { from_; until; period = draw rng r_flap_period; duty = draw rng r_flap_duty }

(* A random spec: up to 3 channels and 2 shapers (either list may be
   empty; both empty = clean). *)
let spec rng =
  let channels = List.init (Rng.int rng 4) (fun _ -> channel_item rng) in
  let shapers = List.init (Rng.int rng 3) (fun _ -> shaper rng) in
  { Spec.channels; shapers }

(* A spec guaranteed non-clean, for search population seeding. *)
let rec nonempty_spec rng =
  let s = spec rng in
  if Spec.is_empty s then nonempty_spec rng else s
