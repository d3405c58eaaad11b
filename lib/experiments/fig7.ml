type point = {
  which : Baseline.Allocator.which;
  ncpus : int;
  ops : int;
  ops_per_sec : float;
  stats : Lockfree.Stats.t option;
}

let default_cpus = [ 1; 2; 4; 8; 12; 16; 20; 25 ]

(* Input order is preserved by Parallel.map, keeping the point list
   bit-identical to a sequential run. *)
let sweep ~jobs whichs ns cell =
  Parallel.map ~jobs
    (fun (which, n) -> cell which n)
    (List.concat_map (fun which -> List.map (fun n -> (which, n)) ns) whichs)

let run ?(jobs = 1) ?(whichs = Baseline.Allocator.all) ?(cpus = default_cpus)
    ?(iters = 2000) ?(bytes = 256) () =
  sweep ~jobs whichs cpus (fun which ncpus ->
      let r = Workload.Bestcase.run ~which ~ncpus ~iters ~bytes () in
      {
        which;
        ncpus;
        ops = r.Workload.Bestcase.pairs;
        ops_per_sec = r.pairs_per_sec;
        stats = r.stats;
      })

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
             | Some p -> fmt p.ops_per_sec
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
    | Some p -> p.ops_per_sec
    | None -> invalid_arg "Fig7.speedup: no 1-CPU point"
  in
  List.filter_map
    (fun p ->
      if p.which = which then Some (p.ncpus, p.ops_per_sec /. base)
      else None)
    points
