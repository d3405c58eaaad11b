type row = { interface : string; alloc_insns : int; free_insns : int }

let measure_pair m f_alloc f_free =
  (* Warm the caches and the per-CPU freelists, then measure single
     operations by the retired-instruction delta. *)
  let a = f_alloc () in
  f_free a;
  let a = f_alloc () in
  f_free a;
  let r0 = Sim.Machine.retired m ~cpu:0 in
  let a = f_alloc () in
  let r1 = Sim.Machine.retired m ~cpu:0 in
  f_free a;
  let r2 = Sim.Machine.retired m ~cpu:0 in
  (r1 - r0, r2 - r1)

(* New allocator: cookie and standard interfaces share a machine (the
   warm state carries from one measurement to the next, as in the
   paper's warm-path counts). *)
let kma_rows () =
  let bytes = 256 in
  let rows = ref [] in
  let m, _, probe =
    Workload.Rig.fresh_probed Baseline.Allocator.Newkma ~ncpus:1 ()
  in
  let kmem = Option.get probe.Baseline.Allocator.kmem in
  Sim.Machine.run m
    [|
      (fun _ ->
        let c = Kma.Cookie.of_bytes_host kmem ~bytes in
        let ca, cf =
          measure_pair m
            (fun () -> Kma.Cookie.alloc kmem c)
            (fun a -> Kma.Cookie.free kmem c a)
        in
        rows :=
          { interface = "cookie macros"; alloc_insns = ca; free_insns = cf }
          :: !rows;
        let sa, sf =
          measure_pair m
            (fun () -> Kma.Kmem.alloc kmem ~bytes)
            (fun a -> Kma.Kmem.free kmem ~addr:a ~bytes)
        in
        rows :=
          {
            interface = "standard kmem_alloc";
            alloc_insns = sa;
            free_insns = sf;
          }
          :: !rows);
    |];
  List.rev !rows

(* MK baseline on its own machine. *)
let mk_rows () =
  let bytes = 256 in
  let m, a = Workload.Rig.fresh Baseline.Allocator.Mk ~ncpus:1 () in
  let counts = ref (0, 0) in
  Sim.Machine.run m
    [|
      (fun _ ->
        counts :=
          measure_pair m
            (fun () -> a.Baseline.Allocator.alloc ~bytes)
            (fun addr -> a.Baseline.Allocator.free ~addr ~bytes));
    |];
  let alloc_insns, free_insns = !counts in
  [ { interface = "mk (plus global lock)"; alloc_insns; free_insns } ]

let run ?(jobs = 1) () =
  (* Two independent machines — a two-cell sweep; order is preserved
     by Parallel.map, so the row list is identical at any job count. *)
  List.concat (Parallel.map ~jobs (fun f -> f ()) [ kma_rows; mk_rows ])

let print rows =
  Series.heading "Instruction counts (warm fast paths, simulated insns)";
  Series.table
    ~header:[ "interface"; "alloc"; "free"; "paper" ]
    (List.map
       (fun r ->
         let paper =
           match r.interface with
           | "cookie macros" -> "13 / 13 (80x86)"
           | "standard kmem_alloc" -> "35 / 32 (80x86)"
           | _ -> "9 / 16 (VAX)"
         in
         [
           r.interface;
           string_of_int r.alloc_insns;
           string_of_int r.free_insns;
           paper;
         ])
       rows)
