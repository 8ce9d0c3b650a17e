(* Impairment specifications: the parsed form of the `--impair` CLI
   grammar, and the robustness experiment's named profiles.

   Grammar:  spec    := "clean" | item ("+" item)*
             item    := name [":" kv ("," kv)*]
             kv      := key "=" float
             name    := gilbert | bernoulli | reorder | dup | corrupt
                      | jitter | outage | clamp | flap

   Channels (packet-level) accept `from=` / `until=` window keys in
   addition to their parameters; shapers (link-level schedule) are
   windows by construction. Examples:

     gilbert:p_gb=0.01,p_bg=0.3            bursty loss, default severity
     gilbert:from=8,until=10               loss burst from t=8s to t=10s
     reorder:p=0.1,depth=4+jitter          composition, left to right
     outage:at=8,for=2                     link dead for 2 s at t=8
     flap:period=6,duty=0.85               up 85% of each 6 s period
     clamp:from=5,until=15,factor=0.25     rate cut to a quarter

   The item grammar, its errors and printing pieces are the shared
   kernel (lib/grammar); this module is its table of names, keys and
   defaults. [to_string] is canonical (fixed key order) and
   round-trips through [of_string]. *)

type shaper =
  | Outage of { at : float; dur : float }
  | Clamp of { from_ : float; until : float; factor : float }
  | Flap of { from_ : float; until : float; period : float; duty : float }

type channel_item = { kind : Channel.kind; from_ : float; until : float }

type t = { channels : channel_item list; shapers : shaper list }

let empty = { channels = []; shapers = [] }
let is_empty s = s.channels = [] && s.shapers = []

(* Reordering at the sender's ACK stream: the reorder channel displaces
   packets directly; duplication and jitter deliver ACKs out of order
   too (a dup's late copy, unequal deferrals). Specs containing any of
   them want a TCP-style dup-ACK threshold. *)
let may_reorder s =
  List.exists
    (fun c ->
      match c.kind with
      | Channel.Reorder _ | Channel.Duplicate _ | Channel.Jitter _ -> true
      | Channel.Gilbert _ | Channel.Bernoulli _ | Channel.Corrupt _ -> false)
    s.channels

(* ---- defaults ---- *)

let default_gilbert =
  (* ~3.4% stationary loss in bursts of mean length 4. *)
  Channel.Gilbert { p_gb = 0.015; p_bg = 0.25; p_good = 0.0; p_bad = 0.6 }

let default_bernoulli = Channel.Bernoulli { p = 0.01 }
let default_reorder = Channel.Reorder { p = 0.08; depth = 4; max_hold = 0.2 }
let default_duplicate = Channel.Duplicate { p = 0.01 }
let default_corrupt = Channel.Corrupt { p = 0.01 }
let default_jitter = Channel.Jitter { max_delay = 0.012 }

(* ---- the grammar table (kernel: lib/grammar) ---- *)

let channel name keys mk =
  Grammar.windowed name keys (fun get (from_, until) ->
      `Channel { kind = mk get; from_; until })

let grammar =
  {
    Grammar.noun = "impairment";
    label = "spec item";
    empty = "clean";
    items =
      [
        channel "gilbert" [ "p_gb"; "p_bg"; "p_good"; "p_bad" ] (fun g ->
            Channel.Gilbert
              {
                p_gb = g "p_gb" 0.015;
                p_bg = g "p_bg" 0.25;
                p_good = g "p_good" 0.0;
                p_bad = g "p_bad" 0.6;
              });
        channel "bernoulli" [ "p" ] (fun g -> Channel.Bernoulli { p = g "p" 0.01 });
        channel "reorder" [ "p"; "depth"; "max_hold" ] (fun g ->
            Channel.Reorder
              {
                p = g "p" 0.08;
                depth = max 1 (int_of_float (g "depth" 4.0));
                max_hold = g "max_hold" 0.2;
              });
        channel "dup" [ "p" ] (fun g -> Channel.Duplicate { p = g "p" 0.01 });
        channel "corrupt" [ "p" ] (fun g -> Channel.Corrupt { p = g "p" 0.01 });
        channel "jitter" [ "max" ] (fun g -> Channel.Jitter { max_delay = g "max" 0.012 });
        Grammar.item "outage" [ "at"; "for" ] (fun g ->
            `Shaper (Outage { at = g "at" 8.0; dur = g "for" 2.0 }));
        Grammar.windowed "clamp" [ "factor" ] (fun g (from_, until) ->
            `Shaper (Clamp { from_; until; factor = g "factor" 0.25 }));
        Grammar.windowed "flap" [ "period"; "duty" ] (fun g (from_, until) ->
            `Shaper (Flap { from_; until; period = g "period" 6.0; duty = g "duty" 0.85 }));
      ];
  }

let names = Grammar.names grammar

let of_string s =
  Result.map
    (fun items ->
      let channels, shapers =
        List.partition_map
          (function `Channel c -> Either.Left c | `Shaper sh -> Either.Right sh)
          items
      in
      { channels; shapers })
    (Grammar.parse grammar s)

let of_string_exn s =
  match of_string s with Ok t -> t | Error m -> invalid_arg m

(* ---- canonical printing ---- *)

let channel_to_string { kind; from_; until } =
  let kv = Grammar.kv in
  let kvs =
    match kind with
    | Channel.Gilbert { p_gb; p_bg; p_good; p_bad } ->
      [ kv "p_gb" p_gb; kv "p_bg" p_bg ]
      @ (if p_good <> 0.0 then [ kv "p_good" p_good ] else [])
      @ [ kv "p_bad" p_bad ]
    | Channel.Bernoulli { p } | Channel.Duplicate { p } | Channel.Corrupt { p } ->
      [ kv "p" p ]
    | Channel.Reorder { p; depth; max_hold } ->
      [ kv "p" p; Grammar.kv_int "depth" depth; kv "max_hold" max_hold ]
    | Channel.Jitter { max_delay } -> [ kv "max" max_delay ]
  in
  Grammar.item_to_string (Channel.kind_name kind) (kvs @ Grammar.window_kvs from_ until)

let shaper_to_string = function
  | Outage { at; dur } ->
    Grammar.item_to_string "outage" [ Grammar.kv "at" at; Grammar.kv "for" dur ]
  | Clamp { from_; until; factor } ->
    Grammar.item_to_string "clamp"
      (Grammar.window_kvs from_ until @ [ Grammar.kv "factor" factor ])
  | Flap { from_; until; period; duty } ->
    Grammar.item_to_string "flap"
      (Grammar.window_kvs from_ until
      @ [ Grammar.kv "period" period; Grammar.kv "duty" duty ])

let to_string s =
  Grammar.to_string grammar
    (List.map channel_to_string s.channels @ List.map shaper_to_string s.shapers)

(* ---- named profiles for the robustness matrix ---- *)

let channel_only kind = { channels = [ { kind; from_ = 0.0; until = infinity } ]; shapers = [] }

let robustness_profiles =
  [
    ("clean", empty);
    ("bursty-loss", channel_only default_gilbert);
    ("reorder", channel_only default_reorder);
    ( "flap",
      {
        channels = [];
        shapers = [ Flap { from_ = 0.0; until = infinity; period = 6.0; duty = 0.85 } ];
      } );
    ("jitter", channel_only default_jitter);
  ]
