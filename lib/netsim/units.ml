(* Unit conventions used across the simulator:
   - time: seconds (float)
   - data sizes: bytes (int)
   - rates: bytes per second (float)
   Helpers below convert from the paper's Mbit/s and ms notation. *)

let mtu = 1500

let bytes_per_mbit = 1_000_000.0 /. 8.0

let mbps_to_bps mbps = mbps *. bytes_per_mbit

let bps_to_mbps bps = bps /. bytes_per_mbit

let kb kilobytes = kilobytes * 1000

let mb megabytes = megabytes * 1_000_000

(* Bandwidth-delay product in bytes. *)
let bdp_bytes ~rate_bps ~rtt_s = int_of_float (rate_bps *. rtt_s)
