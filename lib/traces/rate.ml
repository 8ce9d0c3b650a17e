(* Rate processes: the time-varying capacity of the bottleneck link.

   A trace is a rate function (time -> bytes/s) plus its grain -- the
   step of the piecewise-constant representation, which the link also
   uses as the outage retry interval. *)

type t = {
  name : string;
  fn : float -> float;  (* bytes/s *)
  grain : float;
  mean_bps : float;  (* nominal mean, for normalisation *)
  const_bps : float option;  (* Some r iff [fn] is constantly [r] *)
}

let name t = t.name
let fn t = t.fn
let grain t = t.grain
let mean_bps t = t.mean_bps
let const_bps t = t.const_bps

let constant mbps =
  let bps = Netsim.Units.mbps_to_bps mbps in
  let name = Printf.sprintf "wired-%gMbps" mbps in
  { name; fn = (fun _ -> bps); grain = 0.02; mean_bps = bps; const_bps = Some bps }

(* Capacity that switches between the listed Mbit/s levels every
   [period] seconds, cycling. This is the paper's "step-scenario". *)
let step ~period levels_mbps =
  assert (levels_mbps <> [] && period > 0.0);
  let levels =
    Array.of_list (List.map Netsim.Units.mbps_to_bps levels_mbps)
  in
  let n = Array.length levels in
  let fn time =
    let idx = int_of_float (Float.max 0.0 time /. period) mod n in
    levels.(idx)
  in
  let mean = Array.fold_left ( +. ) 0.0 levels /. float_of_int n in
  let const_bps = if n = 1 then Some levels.(0) else None in
  { name = "step"; fn; grain = 0.02; mean_bps = mean; const_bps }

(* A trace given directly as samples spaced [grain] apart; cycles when
   the simulation outlives the samples. *)
let of_samples ~name ~grain samples_bps =
  assert (Array.length samples_bps > 0 && grain > 0.0);
  let n = Array.length samples_bps in
  let fn time =
    let idx = int_of_float (Float.max 0.0 time /. grain) mod n in
    samples_bps.(idx)
  in
  let mean = Array.fold_left ( +. ) 0.0 samples_bps /. float_of_int n in
  let const_bps = if n = 1 then Some samples_bps.(0) else None in
  { name; fn; grain; mean_bps = mean; const_bps }

(* Clamp a trace's rate into [lo_mbps, hi_mbps]. *)
let clamp ~lo_mbps ~hi_mbps t =
  let lo = Netsim.Units.mbps_to_bps lo_mbps
  and hi = Netsim.Units.mbps_to_bps hi_mbps in
  {
    t with
    fn = (fun time -> Float.min hi (Float.max lo (t.fn time)));
    const_bps = Option.map (fun r -> Float.min hi (Float.max lo r)) t.const_bps;
  }

(* Scale a trace's rate by a constant factor. *)
let scale factor t =
  {
    t with
    name = Printf.sprintf "%s-x%g" t.name factor;
    fn = (fun time -> factor *. t.fn time);
    mean_bps = factor *. t.mean_bps;
    const_bps = Option.map (fun r -> factor *. r) t.const_bps;
  }
