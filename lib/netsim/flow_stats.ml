(* Per-flow measurement record.

   Deliveries, losses and sends are binned on a fixed-width time grid so
   that a 60-second, 100 Mbit/s flow stays small in memory while all the
   paper's time-series plots (throughput vs. time, per-interval
   utilization CDFs) can still be regenerated. Aggregate counters and
   RTT moments are kept exactly.

   The record sits on the simulator's ACK path, which carries a
   zero-allocation contract (see Flow_table): the RTT sum lives in a
   one-cell float array — a mutable float field in this mixed record
   would box on every write — and a bin update is a constant number of
   unboxed array stores once the grid has grown to cover the current
   time. *)

type t = {
  bin : float;
  mutable delivered_bins : float array;  (* bytes per bin *)
  mutable rtt_sum_bins : float array;
  mutable rtt_cnt_bins : int array;
  mutable lost_bins : int array;
  mutable sent_bins : float array;  (* bytes per bin *)
  mutable used : int;  (* number of bins touched *)
  mutable total_delivered : int;  (* bytes *)
  mutable total_sent : int;  (* bytes *)
  mutable total_lost : int;  (* packets *)
  mutable total_acked_pkts : int;
  rtt_sum : float array;  (* one cell *)
}

let create ?(bin = 0.01) ?(initial_bins = 1024) () =
  assert (bin > 0.0 && initial_bins > 0);
  {
    bin;
    delivered_bins = Array.make initial_bins 0.0;
    rtt_sum_bins = Array.make initial_bins 0.0;
    rtt_cnt_bins = Array.make initial_bins 0;
    lost_bins = Array.make initial_bins 0;
    sent_bins = Array.make initial_bins 0.0;
    used = 0;
    total_delivered = 0;
    total_sent = 0;
    total_lost = 0;
    total_acked_pkts = 0;
    rtt_sum = [| 0.0 |];
  }

let bin_width t = t.bin

let rec ensure t idx =
  if idx >= Array.length t.delivered_bins then begin
    let grow a zero =
      let b = Array.make (2 * Array.length a) zero in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.delivered_bins <- grow t.delivered_bins 0.0;
    t.rtt_sum_bins <- grow t.rtt_sum_bins 0.0;
    t.rtt_cnt_bins <- grow t.rtt_cnt_bins 0;
    t.lost_bins <- grow t.lost_bins 0;
    t.sent_bins <- grow t.sent_bins 0.0;
    ensure t idx
  end

let[@inline] index t now =
  let idx = int_of_float (now /. t.bin) in
  let idx = if idx < 0 then 0 else idx in
  ensure t idx;
  if idx + 1 > t.used then t.used <- idx + 1;
  idx

let[@inline] record_delivery t ~now ~bytes ~rtt =
  let idx = index t now in
  t.delivered_bins.(idx) <- t.delivered_bins.(idx) +. float_of_int bytes;
  t.rtt_sum_bins.(idx) <- t.rtt_sum_bins.(idx) +. rtt;
  t.rtt_cnt_bins.(idx) <- t.rtt_cnt_bins.(idx) + 1;
  t.total_delivered <- t.total_delivered + bytes;
  t.total_acked_pkts <- t.total_acked_pkts + 1;
  t.rtt_sum.(0) <- t.rtt_sum.(0) +. rtt

let[@inline] record_loss t ~now ~pkts =
  let idx = index t now in
  t.lost_bins.(idx) <- t.lost_bins.(idx) + pkts;
  t.total_lost <- t.total_lost + pkts

let[@inline] record_send t ~now ~bytes =
  let idx = index t now in
  t.sent_bins.(idx) <- t.sent_bins.(idx) +. float_of_int bytes;
  t.total_sent <- t.total_sent + bytes

let total_delivered_bytes t = t.total_delivered
let total_sent_bytes t = t.total_sent
let total_lost_pkts t = t.total_lost
let total_acked_pkts t = t.total_acked_pkts

let mean_rtt t =
  if t.total_acked_pkts = 0 then nan
  else t.rtt_sum.(0) /. float_of_int t.total_acked_pkts

(* Loss rate = lost / (lost + delivered packets). *)
let loss_rate t =
  let denom = t.total_lost + t.total_acked_pkts in
  if denom = 0 then 0.0 else float_of_int t.total_lost /. float_of_int denom

(* Throughput time series: (bin centre, bytes/s) for each bin. *)
let throughput_series t =
  Array.init t.used (fun i ->
      let time = (float_of_int i +. 0.5) *. t.bin in
      (time, t.delivered_bins.(i) /. t.bin))

(* Mean RTT per bin; bins with no samples yield [nan]. *)
let rtt_series t =
  Array.init t.used (fun i ->
      let time = (float_of_int i +. 0.5) *. t.bin in
      let v =
        if t.rtt_cnt_bins.(i) = 0 then nan
        else t.rtt_sum_bins.(i) /. float_of_int t.rtt_cnt_bins.(i)
      in
      (time, v))

(* Mean delivery rate in bytes/s between [from_t] and [to_t]. *)
let mean_throughput ?(from_t = 0.0) ?to_t t =
  let to_t = match to_t with Some v -> v | None -> float_of_int t.used *. t.bin in
  if to_t <= from_t then 0.0
  else begin
    let lo = int_of_float (from_t /. t.bin) in
    let hi = min t.used (int_of_float (ceil (to_t /. t.bin))) in
    let sum = ref 0.0 in
    for i = max 0 lo to hi - 1 do
      sum := !sum +. t.delivered_bins.(i)
    done;
    !sum /. (to_t -. from_t)
  end
