(* E8 — memory pressure: throughput and pages held vs VM grant-denial
   rate.  The paper's Future Directions section proposes adjusting
   [target] dynamically in response to memory pressure; this experiment
   measures the implemented subsystem (Kma.Pressure) the way the paper
   measures everything else: against the mk baseline, on the simulated
   machine.

   Workload: each CPU runs [rounds] rounds; a round allocates [batch]
   blocks (sizes rotating 64/256/1024 bytes) and then frees them all.
   Freeing a whole batch pushes lists through the global layer and
   returns fully-free pages, so every round regenerates VM traffic and
   every grant is a fresh chance to be denied.  The VM system injects
   denials at the configured rate (deterministic seeded PRNG); mk has
   no VM system — it carves its arena directly and never gives a page
   back — so its rows show the two failure modes the pressure subsystem
   avoids: permanent page hoarding, or allocation failure. *)

type row = {
  rate : float;  (* injected grant-denial probability *)
  pairs_per_sec : float;
  failures : int;  (* allocations that failed permanently *)
  pages_held : int;  (* physical pages held at end of run *)
  reclaims : int;  (* pages returned to the VM system, total *)
  reaps : int;
  reap_pages : int;  (* pages returned by reap passes specifically *)
  retries : int;  (* allocations rescued by reap-and-retry *)
  shrinks : int;
  grows : int;
}

type series = { name : string; rows : row list }

type result = {
  ncpus : int;
  rounds : int;
  batch : int;
  rates : float list;
  series : series list;
}

let sizes = [| 64; 256; 1024 |]

let run_cell ~ncpus ~rounds ~batch ~alloc ~free ~finish m =
  let slots = Array.init ncpus (fun _ -> Array.make batch 0) in
  let pairs = Array.make ncpus 0 in
  let failures = Array.make ncpus 0 in
  Sim.Machine.run_symmetric m ~ncpus (fun cpu ->
      let mine = slots.(cpu) in
      for _round = 1 to rounds do
        for i = 0 to batch - 1 do
          let a = alloc ~slot:i in
          mine.(i) <- a;
          if a = 0 then failures.(cpu) <- failures.(cpu) + 1
        done;
        for i = batch - 1 downto 0 do
          if mine.(i) <> 0 then begin
            free ~slot:i mine.(i);
            pairs.(cpu) <- pairs.(cpu) + 1
          end
        done
      done);
  let cycles = Sim.Machine.elapsed m in
  let total_pairs = Array.fold_left ( + ) 0 pairs in
  let total_failures = Array.fold_left ( + ) 0 failures in
  let pps =
    Workload.Rig.pairs_per_sec (Sim.Machine.config m) ~pairs:total_pairs
      ~cycles
  in
  finish ~pairs_per_sec:pps ~failures:total_failures

let kma_cell ~cookie ~ncpus ~rounds ~batch ~seed rate =
  let cfg = Workload.Rig.paper_config ~ncpus () in
  let m = Sim.Machine.create cfg in
  let params = Kma.Params.auto ~memory_words:cfg.Sim.Config.memory_words in
  let kmem = Kma.Kmem.create m ~params () in
  Kma.Pressure.enable kmem;
  let vmsys = Kma.Kmem.vmsys kmem in
  Sim.Vmsys.set_fault_rate vmsys ~seed rate;
  let cookies =
    Array.map (fun b -> Kma.Cookie.of_bytes_host kmem ~bytes:b) sizes
  in
  let alloc ~slot =
    let k = slot mod Array.length sizes in
    if cookie then
      match Kma.Cookie.try_alloc kmem cookies.(k) with
      | Some a -> a
      | None -> 0
    else
      match Kma.Kmem.try_alloc kmem ~bytes:sizes.(k) with
      | Some a -> a
      | None -> 0
  in
  let free ~slot a =
    let k = slot mod Array.length sizes in
    if cookie then Kma.Cookie.free kmem cookies.(k) a
    else Kma.Kmem.free kmem ~addr:a ~bytes:sizes.(k)
  in
  run_cell ~ncpus ~rounds ~batch ~alloc ~free m
    ~finish:(fun ~pairs_per_sec ~failures ->
      (* Quiescent point: the simulation has drained, so the heap
         checker (when armed) may sweep the whole allocator. *)
      if Heapcheck.on () then Heapcheck.checkpoint kmem;
      let st = Kma.Kmem.stats kmem in
      {
        rate;
        pairs_per_sec;
        failures;
        pages_held = Kma.Kmem.granted_pages_oracle kmem;
        reclaims = Sim.Vmsys.reclaim_count vmsys;
        reaps = st.Kma.Kstats.reaps;
        reap_pages = st.Kma.Kstats.reap_pages;
        retries = st.Kma.Kstats.pressure_retries;
        shrinks = st.Kma.Kstats.target_shrinks;
        grows = st.Kma.Kstats.target_grows;
      })

(* mk has no VM system to deny grants, so its row is rate-independent;
   it is still run per rate to keep the table aligned (and to show the
   contrast at a glance). *)
let mk_cell ~ncpus ~rounds ~batch rate =
  let cfg = Workload.Rig.paper_config ~ncpus () in
  let m = Sim.Machine.create cfg in
  let mk = Baseline.Mk.create m in
  let alloc ~slot =
    Baseline.Mk.alloc mk ~bytes:sizes.(slot mod Array.length sizes)
  in
  let free ~slot:_ a = Baseline.Mk.free mk ~addr:a in
  run_cell ~ncpus ~rounds ~batch ~alloc ~free m
    ~finish:(fun ~pairs_per_sec ~failures ->
      {
        rate;
        pairs_per_sec;
        failures;
        pages_held = Baseline.Mk.pages_carved_oracle mk;
        reclaims = 0;
        reaps = 0;
        reap_pages = 0;
        retries = 0;
        shrinks = 0;
        grows = 0;
      })

let default_rates = [ 0.0; 0.05; 0.1; 0.2; 0.35 ]

let run ?(jobs = 1) ?(ncpus = 4) ?(rounds = 30) ?(batch = 120)
    ?(rates = default_rates) ?(seed = 42) () =
  (* Flatten the (series x rate) grid in series-major order, fan the
     independent cells out, then regroup.  Each cell runs under
     Heapcheck.shard — its end-of-run checkpoint lands in a private
     domain-local state — and the harvests are absorbed in input
     order, so the checker report (and of course the rows) are
     bit-identical at any job count. *)
  let names = [ "cookie"; "newkma"; "mk" ] in
  let cell name rate =
    match name with
    | "cookie" -> kma_cell ~cookie:true ~ncpus ~rounds ~batch ~seed rate
    | "newkma" -> kma_cell ~cookie:false ~ncpus ~rounds ~batch ~seed rate
    | _ -> mk_cell ~ncpus ~rounds ~batch rate
  in
  let grid =
    List.concat_map (fun name -> List.map (fun r -> (name, r)) rates) names
  in
  let cells =
    Parallel.map ~jobs
      (fun (name, rate) -> Heapcheck.shard (fun () -> cell name rate))
      grid
  in
  let rows = List.map (fun (row, h) -> Heapcheck.absorb h; row) cells in
  let nrates = List.length rates in
  let series =
    List.mapi
      (fun i name ->
        {
          name;
          rows =
            List.filteri
              (fun j _ -> j >= i * nrates && j < (i + 1) * nrates)
              rows;
        })
      names
  in
  { ncpus; rounds; batch; rates; series }

let print r =
  Series.heading
    (Printf.sprintf
       "E8: memory pressure — throughput and pages held vs denial rate (%d \
        CPUs, %d rounds x %d blocks)"
       r.ncpus r.rounds r.batch);
  List.iter
    (fun s ->
      print_newline ();
      print_endline (s.name ^ ":");
      Series.table
        ~header:
          [
            "fault%"; "pairs/s"; "fail"; "pages-held"; "reclaims"; "reaps";
            "reap-pages"; "retries"; "shrink"; "grow";
          ]
        (List.map
           (fun row ->
             [
               Printf.sprintf "%.0f%%" (100. *. row.rate);
               Printf.sprintf "%.2e" row.pairs_per_sec;
               string_of_int row.failures;
               string_of_int row.pages_held;
               string_of_int row.reclaims;
               string_of_int row.reaps;
               string_of_int row.reap_pages;
               string_of_int row.retries;
               string_of_int row.shrinks;
               string_of_int row.grows;
             ])
           s.rows))
    r.series

let find_series r name = List.find (fun s -> s.name = name) r.series

let row_at s rate =
  List.find (fun (row : row) -> Float.equal row.rate rate) s.rows

(* The acceptance shape: at a 20 % denial rate the pressure-enabled
   allocator keeps >= half its fault-free throughput with zero
   permanent failures, its reaps provably return pages to the VM
   system, and mk — which cannot shed memory — either fails or holds
   strictly more pages. *)
let graceful r =
  let at = 0.2 in
  let check name =
    let s = find_series r name in
    let base = row_at s 0.0 in
    let hit = row_at s at in
    hit.failures = 0
    && hit.pairs_per_sec >= 0.5 *. base.pairs_per_sec
    && hit.reap_pages > 0
    && hit.reclaims > 0
  in
  let mk_collapses =
    let mk = row_at (find_series r "mk") at in
    let ck = row_at (find_series r "cookie") at in
    mk.failures > 0 || mk.pages_held > ck.pages_held
  in
  check "cookie" && check "newkma" && mk_collapses
