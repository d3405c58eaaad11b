type point = {
  which : Baseline.Allocator.which;
  ncpus : int;
  pairs_per_sec : float;
}

let default_cpus = [ 1; 2; 4; 8; 12; 16; 20; 25 ]

let run ?(jobs = 1) ?(whichs = Baseline.Allocator.all) ?(cpus = default_cpus)
    ?(iters = 2000) ?(bytes = 256) () =
  (* Each cell builds its own machine, so the sweep fans out across
     domains; input order is preserved by Parallel.map, keeping the
     point list bit-identical to a sequential run. *)
  Parallel.map ~jobs
    (fun (which, ncpus) ->
      let r = Workload.Bestcase.run ~which ~ncpus ~iters ~bytes () in
      { which; ncpus; pairs_per_sec = r.Workload.Bestcase.pairs_per_sec })
    (List.concat_map
       (fun which -> List.map (fun ncpus -> (which, ncpus)) cpus)
       whichs)

let columns points =
  List.sort_uniq compare (List.map (fun p -> p.which) points)

let rows points fmt =
  let cols = columns points in
  let cpus = List.sort_uniq compare (List.map (fun p -> p.ncpus) points) in
  List.map
    (fun n ->
      string_of_int n
      :: List.map
           (fun w ->
             match
               List.find_opt (fun p -> p.which = w && p.ncpus = n) points
             with
             | Some p -> fmt p.pairs_per_sec
             | None -> "-")
           cols)
    cpus

let header lead points =
  lead :: List.map Baseline.Allocator.name_of (columns points)

let print_table ?(lead = "cpus") heading points =
  Series.heading heading;
  Series.table ~header:(header lead points) (rows points Series.sci)

let print_linear =
  print_table "Figure 7: best-case alloc/free pairs per second vs CPUs"

let print_semilog points =
  Series.heading "Figure 8: same data, log10(pairs per second)";
  Series.table ~header:(header "cpus" points)
    (rows points (fun v -> Series.f3 (Float.log10 (max v 1.))))

let speedup points ~which =
  let base =
    match
      List.find_opt (fun p -> p.which = which && p.ncpus = 1) points
    with
    | Some p -> p.pairs_per_sec
    | None -> invalid_arg "Fig7.speedup: no 1-CPU point"
  in
  List.filter_map
    (fun p ->
      if p.which = which then Some (p.ncpus, p.pairs_per_sec /. base)
      else None)
    points
