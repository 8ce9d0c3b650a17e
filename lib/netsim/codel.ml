(* CoDel AQM (Nichols & Jacobson 2012), reduced to its control law.

   The paper's flexibility discussion notes that keeping CUBIC's
   queueing delay low classically requires AQM support (CoDel) in the
   network; Libra achieves it end-to-end. The link keeps the packets
   (one ring for both disciplines) and consults this law on each head
   it pops: drop from the head when packet sojourn time has exceeded
   [target] for at least [interval], with the drop rate accelerating as
   1/sqrt(count) while the condition persists. *)

let target = 0.005 (* sojourn-time target, seconds *)
let interval = 0.1 (* sliding window, seconds *)

type t = {
  mutable first_above_at : float;  (* nan = sojourn below target *)
  mutable dropping : bool;
  mutable drop_next : float;
  mutable drop_count : int;
}

let create () =
  { first_above_at = nan; dropping = false; drop_next = 0.0; drop_count = 0 }

let reset t =
  t.first_above_at <- nan;
  t.dropping <- false

let[@inline] control_interval count = interval /. sqrt (float_of_int (max 1 count))

(* Marked [@inline] so the link's call site keeps [now] and [sojourn]
   unboxed: a cross-module call with float arguments boxes them. *)
let[@inline] drop t ~now ~sojourn ~backlog =
  if sojourn < target || backlog <= 2 * Units.mtu then begin
    (* Below target: leave the dropping state. *)
    reset t;
    false
  end
  else if Float.is_nan t.first_above_at then begin
    (* Above target: arm the interval clock. *)
    t.first_above_at <- now;
    false
  end
  else if t.dropping then begin
    if now >= t.drop_next then begin
      t.drop_count <- t.drop_count + 1;
      t.drop_next <- now +. control_interval t.drop_count;
      true
    end
    else false
  end
  else if now -. t.first_above_at >= interval then begin
    (* Sojourn stayed above target for a full interval: enter the
       dropping state with this packet. *)
    t.dropping <- true;
    t.drop_count <- (if t.drop_count > 2 then t.drop_count - 2 else 1);
    t.drop_next <- now +. control_interval t.drop_count;
    true
  end
  else false
