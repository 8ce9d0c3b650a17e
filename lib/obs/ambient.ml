(* The ambient context (see ambient.mli): one [Domain.DLS] cell per
   slot, a registry of slots, and frames — the values of every slot —
   that [Exec.Pool] forks, runs and joins. A slot's [live] counter lets
   probe sites keep their one-load disabled path. *)

type 'a fork =
  | Inherit
  | Mask
  | Split of { fork : 'a -> 'a; join : 'a -> 'a -> unit }

type 'a slot = {
  key : 'a option ref Domain.DLS.key;
  live : int Atomic.t;
  mode : 'a fork;
  observing : bool;
}

(* A slot with a value; the registry holds every slot (in registration
   order, at module initialisation) bound to nothing. *)
type binding = Bind : 'a slot * 'a option -> binding

let slots = ref []

let slot ?(live = Atomic.make 0) ?(observing = false) mode =
  let s = { key = Domain.DLS.new_key (fun () -> ref None); live; mode; observing } in
  slots := !slots @ [ Bind (s, None) ];
  s

let[@inline] get s = !(Domain.DLS.get s.key)

let with_ s v f =
  let cell = Domain.DLS.get s.key in
  let saved = !cell in
  let delta = Bool.to_int (Option.is_some v) - Bool.to_int (Option.is_some saved) in
  cell := v;
  if delta <> 0 then ignore (Atomic.fetch_and_add s.live delta);
  Fun.protect
    ~finally:(fun () ->
      if delta <> 0 then ignore (Atomic.fetch_and_add s.live (-delta));
      cell := saved)
    f

(* ---- frames ---- *)

type frame = binding list

let rec run frame f =
  match frame with [] -> f () | Bind (s, v) :: rest -> with_ s v (fun () -> run rest f)

let fork () =
  List.map
    (fun (Bind (s, _)) ->
      match (s.mode, get s) with
      | Inherit, v -> Bind (s, v)
      | Mask, _ | Split _, None -> Bind (s, None)
      | Split { fork; _ }, Some parent -> Bind (s, Some (fork parent)))
    !slots

let join frame =
  List.iter
    (fun (Bind (s, child)) ->
      match (s.mode, child, get s) with
      | Split { join; _ }, Some child, Some parent -> join parent child
      | _ -> ())
    frame

let masked pick f = run (List.filter pick !slots) f

(* An inline pool task writes straight into its caller's slots, which is
   what a joined child reproduces; only [Mask] slots differ. *)
let inline f = masked (fun (Bind (s, _)) -> match s.mode with Mask -> true | _ -> false) f

let unobserved f = masked (fun (Bind (s, _)) -> s.observing) f
