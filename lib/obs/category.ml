(* Trace-event categories, used both as a subscription filter (a tracer
   carries a bitmask of the categories it wants) and as the cheap guard
   at every probe site: [Trace.on cat] is the one-branch test that
   instrumented code performs before allocating an event. *)

type t =
  | Pkt  (* packet enqueue / dequeue / drop at the bottleneck queue *)
  | Link  (* bottleneck service-rate changes *)
  | Ack  (* ACK delivery at the sender *)
  | Rate  (* cwnd / pacing-rate updates *)
  | Monitor  (* monitor-interval snapshots *)
  | Stage  (* Libra stage transitions *)
  | Cycle  (* Libra per-cycle utility triples and decisions *)
  | Rl  (* RL step / reward / action records *)
  | Fault  (* fault-injector actions: drops, holds, corruption, outages *)
  | Run
    (* run boundaries: a new simulation (or RL episode) starting at sim
       time 0. Structural markers — every tracer subscribes to them
       regardless of its filter, because consumers (trace_check) need
       them to segment a lane whose sim clock restarts. *)
  | Harness
    (* supervision records from the execution harness: experiment
       failures, retries, deadline expiries, checkpoint saves/resumes
       and controller fallbacks. Structural like [Run] — always
       subscribed, and exempt from per-lane monotonicity (they are
       stamped from outside the sim clock). *)
  | Invariant
    (* invariant-checker verdicts: a [Violation] event records a
       predicate that failed online (see lib/check). Structural like
       [Run] — a tracer never filters out the evidence that a run's
       behavioural contract broke. *)

let all =
  [ Pkt; Link; Ack; Rate; Monitor; Stage; Cycle; Rl; Fault; Run; Harness; Invariant ]

let bit = function
  | Pkt -> 1
  | Link -> 2
  | Ack -> 4
  | Rate -> 8
  | Monitor -> 16
  | Stage -> 32
  | Cycle -> 64
  | Rl -> 128
  | Run -> 256
  | Fault -> 512
  | Harness -> 1024
  | Invariant -> 2048

let to_string = function
  | Pkt -> "pkt"
  | Link -> "link"
  | Ack -> "ack"
  | Rate -> "rate"
  | Monitor -> "monitor"
  | Stage -> "stage"
  | Cycle -> "cycle"
  | Rl -> "rl"
  | Fault -> "fault"
  | Run -> "run"
  | Harness -> "harness"
  | Invariant -> "invariant"

let of_string = function
  | "pkt" -> Some Pkt
  | "link" -> Some Link
  | "ack" -> Some Ack
  | "rate" -> Some Rate
  | "monitor" -> Some Monitor
  | "stage" -> Some Stage
  | "cycle" -> Some Cycle
  | "rl" -> Some Rl
  | "fault" -> Some Fault
  | "run" -> Some Run
  | "harness" -> Some Harness
  | "invariant" -> Some Invariant
  | _ -> None

let mask_of cats = List.fold_left (fun m c -> m lor bit c) 0 cats

(* Parse a "pkt,ack,stage" filter string (as given to --trace-filter). *)
let parse_filter s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest -> (
      match of_string tok with
      | Some c -> go (c :: acc) rest
      | None ->
        Error
          (Printf.sprintf "unknown trace category %S (known: %s)" tok
             (String.concat ", " (List.map to_string all))))
  in
  String.split_on_char ',' s
  |> List.filter_map (fun tok ->
         match String.trim tok with
         | "" -> None
         | tok -> Some (String.lowercase_ascii tok))
  |> go []
