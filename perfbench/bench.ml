(* One benchmark run: both sides of one workload on one seed.

   The run alternates the sides: one simulated repetition (the seeded
   replay on a fresh machine), then native rounds (each a fresh pool
   serving requests for a short window) for as long again, until
   [--seconds] have passed and the simulated side has run at least
   three times; every host-timed figure is the median over
   repetitions or rounds, so both sides see the same host.  Traced, the
   alternation takes half the time, and one traced repetition and one
   traced round follow. *)

type metric = string * string * float

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  context : (string * string) list;
  write_spans : out_channel -> unit;
}

let min_reps = 3

(* A native round's timed window: short, so a slow stretch of the host
   lands in few rounds and the median passes over it. *)
let window_s ~seconds = Float.min 0.5 (seconds /. 12.)

let run ?(scale = 1.) w ~seed ~seconds ~trace =
  let sim_in = Inputs.sim ~scale w ~seed in
  let nat_in = Inputs.native w ~seed in
  let budget = if trace then seconds /. 2. else seconds in
  let window_s = window_s ~seconds:budget in
  let t0 = Clock.ns () in
  (* Each simulated repetition is followed by native rounds until the
     native side has had as much host time as the simulated side; a
     full major collection after each keeps one's garbage out of the
     next one's timing. *)
  let rec alternate reps rounds ~sim_ns ~native_ns =
    let t = Clock.ns () in
    let rep = Simside.rep sim_in in
    Gc.full_major ();
    let sim_ns = sim_ns + (Clock.ns () - t) in
    let rec catch_up rounds native_ns =
      let t = Clock.ns () in
      let round = Nativeside.round nat_in ~window_s ~traced:false in
      Gc.full_major ();
      let native_ns = native_ns + (Clock.ns () - t) in
      if native_ns < sim_ns then catch_up (round :: rounds) native_ns
      else (round :: rounds, native_ns)
    in
    let rounds, native_ns = catch_up rounds native_ns in
    let reps = rep :: reps in
    if List.length reps >= min_reps && Clock.s_of_ns (Clock.ns () - t0) >= budget
    then (List.rev reps, List.rev rounds)
    else alternate reps rounds ~sim_ns ~native_ns
  in
  let reps, rounds = alternate [] [] ~sim_ns:0 ~native_ns:0 in
  let first = List.hd reps in
  let sig0 = Simside.signature first in
  let mismatches =
    List.length (List.filter (fun r -> Simside.signature r <> sig0) reps)
  in
  let sim_setup = Lat.median (List.map (fun (r : Simside.rep) -> r.setup_s) reps) in
  let host_s = Lat.median (List.map (fun (r : Simside.rep) -> r.host_s) reps) in
  let traced_rep = if trace then Some (Simside.rep ~trace:true sim_in) else None in
  let traced_mismatch =
    match traced_rep with
    | Some r when Simside.signature r <> sig0 -> 1
    | _ -> 0
  in
  let traced_round =
    if trace then Some (Nativeside.round nat_in ~window_s:budget ~traced:true)
    else None
  in
  let nat_setup = Lat.median (List.map (fun (r : Nativeside.round) -> r.setup_s) rounds) in
  let all_rounds = rounds @ Option.to_list traced_round in
  let sim_reps = reps @ Option.to_list traced_rep in
  let attempted =
    List.fold_left (fun n (r : Simside.rep) -> n + r.ops) 0 sim_reps
    + List.fold_left (fun n (r : Nativeside.round) -> n + Nativeside.pool_ops r.stats) 0 all_rounds
  in
  let failed =
    List.fold_left (fun n (r : Simside.rep) -> n + r.failed) 0 sim_reps
    + mismatches + traced_mismatch
    + List.fold_left (fun n (r : Nativeside.round) -> n + r.bad) 0 all_rounds
  in
  let metrics =
    match traced_rep, traced_round with
    | Some tr, Some tn ->
        Simside.per_layer first ~host_s ~traced_host_s:tr.host_s
          (Option.get tr.spans)
        @ Nativeside.per_layer ~untraced:rounds ~traced:tn
    | _ ->
        ("setup_s", "s", sim_setup +. nat_setup)
        :: Simside.end_to_end first ~host_s
        @ Nativeside.end_to_end rounds
  in
  let context =
    [
      ("workload", Inputs.name w);
      ("seed", string_of_int seed);
      ("geometry", Simside.geometry);
      ("ocaml", Sys.ocaml_version);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("sim_cpus", string_of_int sim_in.ncpus);
      ("sim_ops", string_of_int first.ops);
      ("sim_reps", string_of_int (List.length reps));
      ("native_domains", string_of_int (Inputs.domains w));
      ("native_rounds", string_of_int (List.length rounds));
      ("pool_mode", match nat_in.mode with `Fixed -> "fixed" | `Adaptive -> "adaptive");
    ]
  in
  let write_spans oc =
    Option.iter (fun (r : Simside.rep) -> Option.iter (Simside.write_spans oc) r.spans) traced_rep;
    Option.iter (Nativeside.write_spans oc) traced_round
  in
  { attempted; failed; metrics; context; write_spans }
