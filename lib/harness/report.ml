(* Buffered experiment reports.

   Experiments used to print straight to stdout, which ties output order
   to execution order; with the harness fanned out over a domain pool,
   execution order is scheduling-dependent. Instead each experiment runs
   under [capture], which installs an ambient report sink: everything
   the body emits through [printf]/[text] (and hence through [Table])
   lands in the report's buffer, and the registry renders the finished
   reports in registry order — so the rendered output is byte-identical
   no matter how many domains ran the experiments.

   A pool task without a capture of its own writes into a fresh report
   that the pool appends to its caller's at the join, in submission
   order. Alongside the text, a report carries key/value results for
   machine-readable consumers (bench JSON, tests). *)

type t = {
  buf : Buffer.t;
  mutable kvs : (string * string) list;  (* reversed insertion order *)
}

let create () = { buf = Buffer.create 1024; kvs = [] }

let line t s =
  Buffer.add_string t.buf s;
  Buffer.add_char t.buf '\n'

let linef t fmt = Printf.ksprintf (line t) fmt
let kv t key value = t.kvs <- (key, value) :: t.kvs
let results t = List.rev t.kvs
let render t = Buffer.contents t.buf
let print t = print_string (render t)

(* ---- checkpoint serialization ----

   Reports round-trip through Obs.Json so `experiments --checkpoint`
   can persist a finished cell and a resumed run can render it
   byte-identically. Report text is printable ASCII + \n/\t (Table
   output), which Obs.Json.escape round-trips exactly. *)

let to_json t =
  Obs.Json.Obj
    [
      ("report", Obs.Json.Num 1.0);
      ("text", Obs.Json.Str (render t));
      ( "kvs",
        Obs.Json.List
          (List.map
             (fun (k, v) -> Obs.Json.List [ Obs.Json.Str k; Obs.Json.Str v ])
             (results t)) );
    ]

let of_json j =
  let open Obs.Json in
  match (member "report" j, member "text" j, member "kvs" j) with
  | Some (Num 1.0), Some (Str text), Some (List kvs) ->
    let kv_of = function
      | List [ Str k; Str v ] -> Some (k, v)
      | _ -> None
    in
    let rec build acc = function
      | [] -> Some (List.rev acc)
      | x :: rest -> (
        match kv_of x with Some kv -> build (kv :: acc) rest | None -> None)
    in
    Option.map
      (fun kvs ->
        let t = create () in
        Buffer.add_string t.buf text;
        List.iter (fun (k, v) -> kv t k v) kvs;
        t)
      (build [] kvs)
  | _ -> None

(* ---- the ambient sink ---- *)

let slot =
  Obs.Ambient.slot
    (Obs.Ambient.Split
       {
         fork = (fun _ -> create ());
         join =
           (fun r child ->
             Buffer.add_buffer r.buf child.buf;
             r.kvs <- child.kvs @ r.kvs);
       })

let capture f =
  let r = create () in
  Obs.Ambient.with_ slot (Some r) f;
  r

(* Emit into the current sink; outside any [capture] (direct CLI use,
   tests poking a runner) fall back to stdout, preserving the old
   behaviour. *)
let printf fmt =
  Printf.ksprintf
    (fun s ->
      match Obs.Ambient.get slot with
      | Some r -> Buffer.add_string r.buf s
      | None -> print_string s)
    fmt

let text s = printf "%s\n" s

(* Record a result on the current sink, if any. *)
let result key value = Option.iter (fun r -> kv r key value) (Obs.Ambient.get slot)
let resultf key fmt = Printf.ksprintf (result key) fmt
