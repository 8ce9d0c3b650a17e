(* The item-list grammar behind every '+'-joined spec flag (`--impair`,
   `--chaos`):

     spec := EMPTY | item ("+" item)*
     item := name [":" key "=" number ("," key "=" number)*]

   A grammar is a table of item names, each with the keys it accepts
   and a builder that reads values by key (falling back to defaults).
   The kernel owns everything the clients would otherwise repeat:
   tokenizing, positioned errors with an expected-keys hint, the
   unknown-name "known: ..." list, [from=]/[until=] windows, and the
   canonical printer's pieces. Clients own their types, defaults and
   which keys they print. *)

type get = string -> float -> float
(* [get key default]: the item's value for [key], else [default]. *)

type 'a item = { name : string; keys : string list; build : get -> 'a }

type 'a t = {
  noun : string;  (* names items in errors: "impairment", "chaos" *)
  label : string;  (* prefix of the positioned error: "spec item" *)
  empty : string;  (* the word for the empty spec: "clean", "none" *)
  items : 'a item list;
}

let item name keys build = { name; keys; build }

(* A windowed item also accepts [from=] / [until=]; its builder gets the
   window (default: always on). *)
let windowed name keys build =
  {
    name;
    keys = "from" :: "until" :: keys;
    build = (fun get -> build get (get "from" 0.0, get "until" infinity));
  }

let names g = List.map (fun i -> i.name) g.items

(* ---- parsing ---- *)

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt
let ( let* ) = Result.bind

let split_at c s =
  match String.index_opt s c with
  | None -> (s, None)
  | Some i -> (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))

let parse_kvs g name args =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | kv :: rest -> (
      match split_at '=' kv with
      | _, None -> fail "%s %s: expected key=value, got %S" g.noun name kv
      | key, Some v -> (
        match float_of_string_opt v with
        | Some f -> go ((key, f) :: acc) rest
        | None -> fail "%s key %s: %S is not a number" g.noun key v))
  in
  go [] (match args with None -> [] | Some a -> String.split_on_char ',' a)

let parse_item g text =
  let name, args = split_at ':' text in
  let* kvs = parse_kvs g name args in
  match List.find_opt (fun i -> i.name = name) g.items with
  | None ->
    fail "unknown %s %S (known: %s)" g.noun name
      (String.concat ", " (names g @ [ g.empty ]))
  | Some it -> (
    match List.find_opt (fun (k, _) -> not (List.mem k it.keys)) kvs with
    | Some (k, _) ->
      fail "%s %s: unknown key %S (expected one of: %s)" g.noun name k
        (String.concat ", " it.keys)
    | None ->
      Ok (it.build (fun key default -> Option.value ~default (List.assoc_opt key kvs))))

(* Items in spec order; an error names the 1-based '+'-position and the
   offending item, so a malformed spec in a long log pinpoints itself. *)
let parse g s =
  let s = String.trim s in
  if s = "" || s = g.empty then Ok []
  else
    let rec go acc pos = function
      | [] -> Ok (List.rev acc)
      | text :: rest -> (
        let text = String.trim text in
        match parse_item g text with
        | Error m -> fail "%s %d (%S): %s" g.label pos text m
        | Ok x -> go (x :: acc) (pos + 1) rest)
    in
    go [] 1 (String.split_on_char '+' s)

(* ---- canonical printing ---- *)

let kv key v = key ^ "=" ^ Printf.sprintf "%g" v
let kv_int key n = key ^ "=" ^ string_of_int n
let window_kvs from_ until =
  (if from_ <> 0.0 then [ kv "from" from_ ] else [])
  @ if until <> infinity then [ kv "until" until ] else []

let item_to_string name kvs =
  if kvs = [] then name else name ^ ":" ^ String.concat "," kvs

let to_string g = function [] -> g.empty | items -> String.concat "+" items
