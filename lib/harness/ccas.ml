(* Named CCA factories: one place mapping the paper's algorithm names to
   constructors, used by the CLI, the experiments and the benches.

   Factories take a seed so repeated-trial experiments can vary the
   stochastic agents run-to-run (classic CCAs ignore it). *)

type factory = seed:int -> Netsim.Cca.t

let cubic : factory = fun ~seed:_ -> Classic_cc.Cubic.make ()
let bbr : factory = fun ~seed:_ -> Classic_cc.Bbr.make ()
let reno : factory = fun ~seed:_ -> Classic_cc.Reno.make ()
let vegas : factory = fun ~seed:_ -> Classic_cc.Vegas.make ()
let westwood : factory = fun ~seed:_ -> Classic_cc.Westwood.make ()
let illinois : factory = fun ~seed:_ -> Classic_cc.Illinois.make ()
let copa : factory = fun ~seed:_ -> Classic_cc.Copa.make ()
let sprout : factory = fun ~seed:_ -> Classic_cc.Sprout_ewma.make ()
let vivace : factory = fun ~seed:_ -> Rlcc.Vivace.make ()
let proteus : factory = fun ~seed:_ -> Rlcc.Proteus.make ()
let remy : factory = fun ~seed:_ -> Rlcc.Remy.make ()
let indigo : factory = fun ~seed:_ -> Rlcc.Indigo.make ()
let aurora : factory = Rlcc.Aurora.make
let orca : factory = Rlcc.Orca.make
let mod_rl : factory = Rlcc.Mod_rl.make

let libra_params ~seed = { Libra.Params.default with Libra.Params.seed }

let c_libra : factory =
 fun ~seed -> Libra.make_c_libra ~params:(libra_params ~seed) ()

let b_libra : factory =
 fun ~seed -> Libra.make_b_libra ~params:(libra_params ~seed) ()

let cl_libra : factory =
 fun ~seed -> Libra.make_clean_slate ~params:(libra_params ~seed) ()

let r_libra : factory =
 fun ~seed -> Libra.make_r_libra ~params:(libra_params ~seed) ()

(* C-Libra with a Fig. 11 preference preset. *)
let c_libra_pref preset : factory =
 fun ~seed ->
  Libra.with_preference ~preset ~base:(libra_params ~seed) Libra.make_c_libra

let b_libra_pref preset : factory =
 fun ~seed ->
  Libra.with_preference ~preset ~base:(libra_params ~seed) Libra.make_b_libra

let all =
  [
    ("cubic", cubic);
    ("bbr", bbr);
    ("reno", reno);
    ("vegas", vegas);
    ("westwood", westwood);
    ("illinois", illinois);
    ("copa", copa);
    ("sprout", sprout);
    ("vivace", vivace);
    ("proteus", proteus);
    ("remy", remy);
    ("indigo", indigo);
    ("aurora", aurora);
    ("orca", orca);
    ("mod-rl", mod_rl);
    ("c-libra", c_libra);
    ("b-libra", b_libra);
    ("cl-libra", cl_libra);
    ("r-libra", r_libra);
  ]

let lookup name =
  match List.assoc_opt name all with
  | Some f -> Ok f
  | None ->
    Error
      (Printf.sprintf "unknown CCA %S (known: %s)" name
         (String.concat ", " (List.map fst all)))

let find name = match lookup name with Ok f -> f | Error m -> invalid_arg m
