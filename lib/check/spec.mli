(** The invariant-spec grammar: an LTL-flavoured predicate DSL over Obs
    events, parsed from [--invariant] strings / spec-file lines.

    Grammar (one spec per line; ['#'] starts a comment):
    {v
    NAME: always COND
    NAME: never COND
    NAME: after COND eventually COND within N events|N s|N rtt
    NAME: after COND until COND expect COND
    v}
    [COND] is a ['&']-separated conjunction of [ev=EVENT],
    [FIELD OP NUMBER] ([OP] in [< <= > >= = !=]), [FIELD=STRING] /
    [FIELD!=STRING], or the builtin [cycle_argmax]. [FIELD] is ["t"] or
    a payload field of {!Obs.Event.schema}, compared as a number only
    if some event carries it as one and as a string only if some event
    carries it as a string. Clause semantics are three-valued: an [ev=]
    mismatch or a field missing from (or non-finite in) the event at
    hand makes the conjunction inapplicable for that event. *)

type cmp = Lt | Le | Gt | Ge | Eq | Ne

type clause =
  | Ev of string
  | Num of { field : string; op : cmp; value : float }
  | Str of { field : string; negated : bool; value : string }
  | Cycle_argmax

type cond = clause list

type window_unit = Events | Seconds | Rtts
type window = { n : float; unit_ : window_unit }

type formula =
  | Always of cond
  | Never of cond
  | Leads_to of { trigger : cond; goal : cond; within : window }
  | After_until of { trigger : cond; release : cond; expect : cond }

type t = { name : string; formula : formula }

(** The kind string used on Violation events and in failure reports:
    "always", "never", "leads_to" or "after_until". *)
val kind_name : formula -> string

(** Every string {!kind_name} returns. *)
val kind_names : string list

exception Parse_error of string

(** Parse one spec line. Raises {!Parse_error} with a description of
    the offending token: a malformed clause, an unknown event name, or
    a field that no event carries with the compared type (the message
    lists the known fields). *)
val parse : string -> t

(** Parse spec-file lines: blanks and ['#'] comments are skipped. *)
val parse_lines : string list -> t list

(** Canonical rendering; [parse (to_string s)] is structurally equal to
    [s] (floats print with enough digits to round-trip). *)
val to_string : t -> string

val cond_to_string : cond -> string
val window_to_string : window -> string

(** Trace categories the spec needs subscribed to be evaluated
    faithfully; [None] means every category (some condition carries no
    [ev=] selector). *)
val categories : t -> Obs.Category.t list option

(** Union over a spec list; [None] = all. *)
val categories_of_pack : t list -> Obs.Category.t list option

(** The default invariant pack: queue occupancy non-negative (and
    bounded by [buffer_bytes] when given), monitor intervals
    well-formed, ACK RTTs positive, rate recovery within 100 RTTs of a
    link flap clearing, and Libra cycles choosing a maximal-utility
    arm. *)
val default_pack : ?buffer_bytes:int -> unit -> t list

(** Names in {!default_pack} order (the bounded queue spec first). *)
val default_pack_names : string list
