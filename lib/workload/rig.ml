let memory_words = 2 * 1024 * 1024

let paper_config ?(memory_words = memory_words) ~ncpus () =
  (* Cache shape and costs come from the ambient geometry (the
     command's --geometry), which defaults to the paper-era 256-line
     fully-associative caches. *)
  Sim.Config.make ~geometry:(Sim.Geometry.ambient ()) ~ncpus ~memory_words
    ~uncached_words:512 ()

let fresh_probed which ?config ~ncpus () =
  let cfg =
    match config with
    | Some c -> { c with Sim.Config.ncpus }
    | None -> paper_config ~ncpus ()
  in
  Sim.Config.validate cfg;
  let m = Sim.Machine.create cfg in
  let a, probe = Baseline.Allocator.create_probed which m in
  (m, a, probe)

let fresh which ?config ~ncpus () =
  let m, a, _ = fresh_probed which ?config ~ncpus () in
  (m, a)

let pairs_per_sec cfg ~pairs ~cycles =
  if cycles = 0 then 0.
  else float_of_int pairs /. Sim.Config.seconds_of_cycles cfg cycles
