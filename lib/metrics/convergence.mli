(** The paper's Tab. 5 convergence metrics: time from a flow's entry to
    the earliest point after which its throughput stays within a
    tolerance band for a window, plus the stability (standard
    deviation) and mean throughput after that point. *)

type result = {
  converged_at : float option;  (** absolute time; None if never *)
  conv_time : float option;  (** seconds from the flow's entry *)
  stability : float;  (** stddev of throughput after convergence *)
  avg_throughput : float;
}

(** [coarsen ~step series] averages a binned (time, value) series over
    [step]-second windows: window k holds the samples whose
    [int_of_float (time /. step)] is k. For each window holding a
    sample, in increasing order, it returns the window's centre
    [(k + 0.5) *. step] and the mean of its samples, summed in array
    order. Times must be non-negative. *)
val coarsen : step:float -> (float * float) array -> (float * float) array

(** [analyse ~entry series] over a (time, throughput) series, following
    the paper: stable = within +/-25% of the window mean for 5 seconds
    ([window]). *)
val analyse : ?window:float -> entry:float -> (float * float) array -> result
