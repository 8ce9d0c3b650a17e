(* The typed trace-event stream.

   Every event is stamped with *simulation time* (the [t] field), never
   wall clock, so traces are bit-identical across machines and domain
   pools. The variants cover the whole stack: queue operations and link
   rate changes (netsim), ACK delivery and rate updates (flow),
   monitor-interval snapshots, Libra stage transitions and per-cycle
   utility triples (core), and RL step records (rlcc).

   Each variant's payload is declared once, in [fields]; the writers,
   the checker's field views and the schema are all read off that list.
   Serialization is deterministic: floats are rendered with %.9g and
   non-finite values become JSON null (empty cell in CSV). *)

type drop_reason = Tail | Codel | Random

(* What a [Harness] record reports. *)
module Harness_kind = struct
  type t =
    | Failure  (* a supervised task crashed *)
    | Retry  (* ... and is run again after a recorded backoff *)
    | Deadline  (* its logical (or wall-clock) budget ran out *)
    | Checkpoint  (* a checkpoint save/resume, or a training nan-rollback *)
    | Fallback  (* Libra's watchdog quarantined the DRL arm *)
    | Violation  (* the invariant checker failed a supervised task *)
    | Corrupt  (* a host fault (torn write, enospc, eio) surfaced *)

  let all = [ Failure; Retry; Deadline; Checkpoint; Fallback; Violation; Corrupt ]
  let name = function
    | Failure -> "failure"
    | Retry -> "retry"
    | Deadline -> "deadline"
    | Checkpoint -> "checkpoint"
    | Fallback -> "fallback"
    | Violation -> "violation"
    | Corrupt -> "corrupt"
end

type t =
  | Enqueue of { t : float; flow : int; seq : int; size : int; backlog : int }
  | Dequeue of { t : float; flow : int; seq : int; size : int; backlog : int }
  | Drop of { t : float; flow : int; seq : int; size : int; reason : drop_reason }
  | Link_rate of { t : float; rate : float }  (* bytes/s *)
  | Ack of { t : float; flow : int; seq : int; rtt : float; newly_lost : int }
  | Rate of { t : float; flow : int; pacing : float; cwnd : float }
  | Mi_snapshot of {
      t : float;
      duration : float;
      throughput : float;
      avg_rtt : float;
      loss_rate : float;
      rtt_gradient : float;
      acked : int;
      lost : int;
    }
  | Stage of { t : float; stage : string; base_rate : float }
  | Cycle of {
      t : float;
      chosen : string;  (* "prev" | "rl" | "cl" | "skip" *)
      u_prev : float;
      u_rl : float;
      u_cl : float;
      x_next : float;
    }
  | Rl_step of {
      t : float;
      episode : int;  (* -1 for live (non-training) agent decisions *)
      step : int;
      rate : float;
      reward : float;  (* nan when no reward attaches (live decisions) *)
      action : float;
    }
  | Fault of { t : float; flow : int; seq : int; kind : string; value : float }
    (* a fault-injector action: [kind] names it ("gilbert", "reorder",
       "dup", "corrupt", "jitter", "bernoulli", "link_down", "link_up"),
       [value] its magnitude (a delay in seconds, or 1.0 for unit
       actions). Link transitions carry flow = seq = -1. *)
  | Run_start of { t : float; label : string }
    (* a fresh simulation / RL episode whose clock restarts at [t]
       (normally 0); within a lane, timestamps are non-decreasing
       *between* consecutive Run_start markers *)
  | Harness of {
      t : float;
      kind : Harness_kind.t;
      id : string;  (* experiment id / supervision context *)
      detail : string;  (* exn rendering, checkpoint action, ... *)
      attempt : int;  (* 1-based attempt number; 0 when inapplicable *)
      value : float;  (* backoff seconds, budget spent, rate, ... *)
    }
    (* a supervision record from the execution harness (see
       lib/exec/supervisor.ml and Libra.Controller's watchdog). Stamped
       from outside the sim clock, so — like [Run_start] — exempt from
       per-lane timestamp monotonicity; [t] carries sim time where one
       exists (controller fallback) and 0 otherwise. *)
  | Violation of {
      t : float;
      name : string;  (* spec name, e.g. "queue-bound" *)
      kind : string;  (* "always" | "never" | "leads_to" | "after_until" *)
      index : int;  (* 0-based index of the offending event in its lane *)
      detail : string;  (* the clause that failed, rendered *)
    }
    (* an online invariant-checker verdict (lib/check): predicate [name]
       failed at the [index]-th event seen by this lane's checker.
       Stamped with the sim time of the offending event. *)

(* Placeholder used to initialise event buffers. *)
let dummy = Link_rate { t = 0.0; rate = 0.0 }

let time = function
  | Enqueue { t; _ } | Dequeue { t; _ } | Drop { t; _ } | Link_rate { t; _ } | Ack { t; _ }
  | Rate { t; _ } | Mi_snapshot { t; _ } | Stage { t; _ } | Cycle { t; _ } | Rl_step { t; _ }
  | Fault { t; _ } | Run_start { t; _ } | Harness { t; _ } | Violation { t; _ } ->
    t

let category = function
  | Enqueue _ | Dequeue _ | Drop _ -> Category.Pkt
  | Link_rate _ -> Category.Link
  | Ack _ -> Category.Ack
  | Rate _ -> Category.Rate
  | Mi_snapshot _ -> Category.Monitor
  | Stage _ -> Category.Stage
  | Cycle _ -> Category.Cycle
  | Rl_step _ -> Category.Rl
  | Fault _ -> Category.Fault
  | Run_start _ -> Category.Run
  | Harness _ -> Category.Harness
  | Violation _ -> Category.Invariant

let name = function
  | Enqueue _ -> "enqueue"
  | Dequeue _ -> "dequeue"
  | Drop _ -> "drop"
  | Link_rate _ -> "link_rate"
  | Ack _ -> "ack"
  | Rate _ -> "rate"
  | Mi_snapshot _ -> "mi_snapshot"
  | Stage _ -> "stage"
  | Cycle _ -> "cycle"
  | Rl_step _ -> "rl_step"
  | Fault _ -> "fault"
  | Run_start _ -> "run_start"
  | Harness _ -> "harness"
  | Violation _ -> "violation"

let reason_name = function Tail -> "tail" | Codel -> "codel" | Random -> "random"

(* The flow a data-path event belongs to — the key [Trace]'s head-based
   sampling decides on — or -1 for structural events (link state,
   stages, cycles, run, harness and checker records): never sampled out. *)
let flow_id = function
  | Enqueue { flow; _ } | Dequeue { flow; _ } | Drop { flow; _ } | Ack { flow; _ }
  | Rate { flow; _ } | Fault { flow; _ } ->
    flow
  | Link_rate _ | Mi_snapshot _ | Stage _ | Cycle _ | Rl_step _ | Run_start _
  | Harness _ | Violation _ ->
    -1

(* ---- the payload schema ---- *)

type value = Int of int | Float of float | Str of string

(* Every payload field of an event, in export order (the writers put
   [t], the lane and the event name first). Adding a field to an event
   is one entry here, plus a header column for CSV. *)
let fields = function
  | Enqueue { flow; seq; size; backlog; _ } | Dequeue { flow; seq; size; backlog; _ } ->
    [ ("flow", Int flow); ("seq", Int seq); ("size", Int size); ("backlog", Int backlog) ]
  | Drop { flow; seq; size; reason; _ } ->
    [ ("flow", Int flow); ("seq", Int seq); ("size", Int size);
      ("reason", Str (reason_name reason)) ]
  | Link_rate { rate; _ } -> [ ("rate", Float rate) ]
  | Ack { flow; seq; rtt; newly_lost; _ } ->
    [ ("flow", Int flow); ("seq", Int seq); ("rtt", Float rtt);
      ("newly_lost", Int newly_lost) ]
  | Rate { flow; pacing; cwnd; _ } ->
    [ ("flow", Int flow); ("pacing", Float pacing); ("cwnd", Float cwnd) ]
  | Mi_snapshot { duration; throughput; avg_rtt; loss_rate; rtt_gradient; acked; lost; _ } ->
    [ ("duration", Float duration); ("throughput", Float throughput);
      ("avg_rtt", Float avg_rtt); ("loss_rate", Float loss_rate);
      ("rtt_gradient", Float rtt_gradient); ("acked", Int acked); ("lost", Int lost) ]
  | Stage { stage; base_rate; _ } -> [ ("stage", Str stage); ("base_rate", Float base_rate) ]
  | Cycle { chosen; u_prev; u_rl; u_cl; x_next; _ } ->
    [ ("chosen", Str chosen); ("u_prev", Float u_prev); ("u_rl", Float u_rl);
      ("u_cl", Float u_cl); ("x_next", Float x_next) ]
  | Rl_step { episode; step; rate; reward; action; _ } ->
    [ ("episode", Int episode); ("step", Int step); ("rate", Float rate);
      ("reward", Float reward); ("action", Float action) ]
  | Fault { flow; seq; kind; value; _ } ->
    [ ("flow", Int flow); ("seq", Int seq); ("kind", Str kind); ("value", Float value) ]
  | Run_start { label; _ } -> [ ("label", Str label) ]
  | Harness { kind; id; detail; attempt; value; _ } ->
    [ ("kind", Str (Harness_kind.name kind)); ("id", Str id); ("detail", Str detail);
      ("attempt", Int attempt); ("value", Float value) ]
  | Violation { name; kind; index; detail; _ } ->
    [ ("name", Str name); ("kind", Str kind); ("index", Int index); ("detail", Str detail) ]

(* One event of each variant: the schema below is read off these. *)
let prototypes =
  let t = 0.0 and f = 0.0 and i = 0 and s = "" in
  [
    Enqueue { t; flow = i; seq = i; size = i; backlog = i };
    Dequeue { t; flow = i; seq = i; size = i; backlog = i };
    Drop { t; flow = i; seq = i; size = i; reason = Tail };
    Link_rate { t; rate = f };
    Ack { t; flow = i; seq = i; rtt = f; newly_lost = i };
    Rate { t; flow = i; pacing = f; cwnd = f };
    Mi_snapshot
      { t; duration = f; throughput = f; avg_rtt = f; loss_rate = f; rtt_gradient = f;
        acked = i; lost = i };
    Stage { t; stage = s; base_rate = f };
    Cycle { t; chosen = s; u_prev = f; u_rl = f; u_cl = f; x_next = f };
    Rl_step { t; episode = i; step = i; rate = f; reward = f; action = f };
    Fault { t; flow = i; seq = i; kind = s; value = f };
    Run_start { t; label = s };
    Harness { t; kind = Harness_kind.Failure; id = s; detail = s; attempt = i; value = f };
    Violation { t; name = s; kind = s; index = i; detail = s };
  ]

(* Event names with their fields; the placeholder values give the types. *)
let schema = List.map (fun ev -> (name ev, fields ev)) prototypes

let all_names = List.map fst schema

let category_of_name n =
  List.find_map (fun ev -> if name ev = n then Some (category ev) else None) prototypes

(* ---- generic field access ----
   Name-keyed lookups for the invariant checker (lib/check): "t", or a
   key of [fields] passed in as [fs], computed once per checked event.
   Missing fields read as [None]; numeric reads return ints as floats. *)
let rec find fs key =
  match fs with
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else find rest key

let num_field ev fs key =
  if String.equal key "t" then Some (time ev)
  else
    match find fs key with
    | Some (Int v) -> Some (float_of_int v)
    | Some (Float v) -> Some v
    | Some (Str _) | None -> None

let str_field fs key = match find fs key with Some (Str s) -> Some s | _ -> None

(* ---- writers ---- *)

(* The cells of an event's export row: time, lane, name, payload. *)
let row ~lane ev =
  ("t", Float (time ev)) :: ("lane", Int lane) :: ("ev", Str (name ev)) :: fields ev

let float_cell ~null x = if Float.is_finite x then Printf.sprintf "%.9g" x else null

(* One JSON object on one line, keys in list order. Every JSONL export
   (trace events, flight dumps, rollup windows) is printed by this. *)
let add_json_line b kvs =
  List.iteri
    (fun i (key, v) ->
      Buffer.add_string b (if i = 0 then "{\"" else ",\"");
      Buffer.add_string b key;
      Buffer.add_string b "\":";
      match v with
      | Int n -> Buffer.add_string b (string_of_int n)
      | Float x -> Buffer.add_string b (float_cell ~null:"null" x)
      | Str s -> Buffer.add_string b (Printf.sprintf "%S" s))
    kvs;
  Buffer.add_string b "}\n"

(* [lane] names the deterministic buffer the event came from. *)
let to_json_line ~lane b ev = add_json_line b (row ~lane ev)

(* One wide row per event: inapplicable columns are left empty, which
   keeps the file trivially loadable for offline plotting. *)
let csv_header =
  "t,lane,ev,flow,seq,size,backlog,reason,rate,pacing,cwnd,rtt,newly_lost,duration,throughput,avg_rtt,loss_rate,rtt_gradient,acked,lost,stage,chosen,u_prev,u_rl,u_cl,x_next,episode,step,reward,action,label,kind,value,detail,attempt,index"

(* The header column a payload key is written under: three keys share
   a column with another event's key. *)
let csv_column = function "base_rate" -> "rate" | "id" | "name" -> "label" | key -> key

(* Column count of a header (or any comma-separated row). Validators
   derive the width from the file's header through this, never
   hardcode it: the header has grown 33 -> 35 -> 36 already. *)
let csv_width_of_header h =
  1 + String.fold_left (fun acc c -> if c = ',' then acc + 1 else acc) 0 h

let csv_columns = csv_width_of_header csv_header

let csv_index =
  let tbl = Hashtbl.create csv_columns in
  List.iteri (fun i col -> Hashtbl.replace tbl col i) (String.split_on_char ',' csv_header);
  fun key -> Hashtbl.find tbl (csv_column key)

(* Non-finite floats leave the cell empty. Free text (exn renderings,
   invariant clauses) may hold commas, which become ';' so that rows
   keep a fixed width. *)
let csv_cell = function
  | Int n -> string_of_int n
  | Float x -> float_cell ~null:"" x
  | Str s -> String.map (fun c -> if c = ',' then ';' else c) s

(* One CSV line of the values of [kvs], in list order. *)
let add_csv_row b kvs =
  Buffer.add_string b (String.concat "," (List.map (fun (_, v) -> csv_cell v) kvs));
  Buffer.add_char b '\n'

let to_csv_row ~lane b ev =
  let cells = Array.make csv_columns ("", Str "") in
  List.iter (fun ((key, _) as kv) -> cells.(csv_index key) <- kv) (row ~lane ev);
  add_csv_row b (Array.to_list cells)
