(* Deterministic head-based flow sampling.

   The inclusion decision is the first draw of the {!Splitmix} child
   keyed by (seed, flow id), the stream [Netsim.Rng.split_key] derives.
   The sampled flow set is therefore a pure function of (seed, flow
   id): no draw-position coupling, no pool-size coupling, and the same
   flows are kept whether the decision is made at the probe site
   ([Trace.on_flow]) or at [Trace.emit] time. *)

type t = { n : int; seed : int64 }

let create ?(seed = 0) n =
  if n < 1 then invalid_arg "Obs.Sample.create: denominator < 1";
  { n; seed = Int64.of_int seed }

let parse s =
  let s = String.trim s in
  let num =
    match String.index_opt s '/' with
    | Some i when String.sub s 0 i = "1" ->
      int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
    | Some _ -> None
    | None -> int_of_string_opt s
  in
  match num with
  | Some n when n >= 1 -> Ok (create n)
  | _ -> Error (Printf.sprintf "bad sampling spec %S (want \"1/N\" with N >= 1)" s)

let denominator t = t.n
let to_string t = Printf.sprintf "1/%d" t.n

let keep t ~flow =
  t.n <= 1 || flow < 0
  || Splitmix.draw (Splitmix.child ~seed:t.seed ~key:flow) ~n:0 *. float_of_int t.n < 1.0
