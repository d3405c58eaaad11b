let paper_config ?(memory_words = 2 * 1024 * 1024) ~ncpus () =
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
  let m = Sim.Machine.create cfg in
  let a, probe = Baseline.Allocator.create_probed which m in
  (m, a, probe)

let fresh which ?config ~ncpus () =
  let m, a, _ = fresh_probed which ?config ~ncpus () in
  (m, a)

let pairs_per_sec cfg ~pairs ~cycles =
  if cycles = 0 then 0.
  else float_of_int pairs /. Sim.Config.seconds_of_cycles cfg cycles

exception Alloc_failed of {
  which : Baseline.Allocator.which;
  bytes : int;
  ncpus : int;
}

let alloc which ~ncpus (a : Baseline.Allocator.t) ~bytes =
  match a.alloc ~bytes with
  | 0 -> raise (Alloc_failed { which; bytes; ncpus })
  | addr -> addr

exception Conservation of string

let check_drained which ~ncpus (probe : Baseline.Allocator.probe) =
  match Option.bind probe.drained (fun oracle -> oracle ()) with
  | None -> ()
  | Some msg ->
      raise
        (Conservation
           (Printf.sprintf "%s at %d CPUs: %s"
              (Baseline.Allocator.name_of which)
              ncpus msg))
