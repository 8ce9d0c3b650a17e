(* Host-fault chaos specifications: the parsed form of the `--chaos`
   CLI grammar. `--chaos` and `--impair` are two tables over one item
   grammar, the kernel in lib/grammar (tokenizing, positioned errors,
   windows, canonical printing).

   Where `--impair` attacks the simulated network, `--chaos` attacks
   the *host* that the harness persists through: checkpoint saves,
   policy snapshots, flight dumps and trace/rollup exports. Each item
   is a fault class over the I/O plane (Chaos.Io) or the domain pool:

     torn:p=0.3,keep=0.5      a write "crashes" after keep of its bytes:
                              the temp file is left torn, the rename
                              never happens, the caller gets a
                              structured fault
     flip:bytes=2,p=0.1       silent corruption: the write succeeds but
                              [bytes] deterministic byte positions are
                              flipped (caught by verify-on-read)
     enospc:after=4096        the disk fills: writes succeed for the
                              first [after] bytes, then fail ENOSPC
     eio:p=0.05               a read or write fails with EIO
     kill-domain:p=0.25       a pool task's domain dies before the task
                              runs; the pool resurrects the task on a
                              surviving domain

   I/O items take `from=` / `until=` windows over the plane's write
   operation index (0-based); kill-domain windows range over the pool's
   task sequence number. [to_string] is canonical (defaults omitted,
   fixed key order) and round-trips through [of_string]. *)

type item =
  | Torn of { p : float; keep : float }
      (* write aborted after [keep] of the payload, temp file left *)
  | Flip of { p : float; bytes : int }  (* silent byte flips, write "succeeds" *)
  | Enospc of { after : int }  (* byte budget before the disk is full *)
  | Eio of { p : float }  (* read/write error *)
  | Kill_domain of { p : float }  (* pool task's domain dies pre-task *)

type windowed = { item : item; from_ : float; until : float }

type t = { items : windowed list }

let empty = { items = [] }
let is_empty s = s.items = []

let has_kill s =
  List.exists (fun w -> match w.item with Kill_domain _ -> true | _ -> false) s.items

(* ---- the grammar table (kernel: lib/grammar) ---- *)

let windowed name keys mk =
  Grammar.windowed name keys (fun get (from_, until) -> { item = mk get; from_; until })

let grammar =
  {
    Grammar.noun = "chaos";
    label = "chaos item";
    empty = "none";
    items =
      [
        windowed "torn" [ "p"; "keep" ] (fun g -> Torn { p = g "p" 1.0; keep = g "keep" 0.5 });
        windowed "flip" [ "p"; "bytes" ] (fun g ->
            Flip { p = g "p" 1.0; bytes = max 1 (int_of_float (g "bytes" 1.0)) });
        windowed "enospc" [ "after" ] (fun g ->
            Enospc { after = max 0 (int_of_float (g "after" 0.0)) });
        windowed "eio" [ "p" ] (fun g -> Eio { p = g "p" 1.0 });
        windowed "kill-domain" [ "p" ] (fun g -> Kill_domain { p = g "p" 0.5 });
      ];
  }

let names = Grammar.names grammar
let of_string s = Result.map (fun items -> { items }) (Grammar.parse grammar s)

let of_string_exn s =
  match of_string s with Ok t -> t | Error m -> invalid_arg m

(* ---- canonical printing: keys at their default are omitted ---- *)

let kv key ~default v = if v <> default then [ Grammar.kv key v ] else []
let kv_int key ~default n = if n <> default then [ Grammar.kv_int key n ] else []

let windowed_to_string { item; from_; until } =
  let name, kvs =
    match item with
    | Torn { p; keep } -> ("torn", kv "p" ~default:1.0 p @ kv "keep" ~default:0.5 keep)
    | Flip { p; bytes } -> ("flip", kv "p" ~default:1.0 p @ kv_int "bytes" ~default:1 bytes)
    | Enospc { after } -> ("enospc", kv_int "after" ~default:0 after)
    | Eio { p } -> ("eio", kv "p" ~default:1.0 p)
    | Kill_domain { p } -> ("kill-domain", kv "p" ~default:0.5 p)
  in
  Grammar.item_to_string name (kvs @ Grammar.window_kvs from_ until)

let to_string s = Grammar.to_string grammar (List.map windowed_to_string s.items)
