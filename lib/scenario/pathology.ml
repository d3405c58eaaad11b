type percentiles = { count : int; p50 : int; p99 : int; pmax : int }

type frag_point = {
  at_ops : int;
  granted_pages : int;
  live_bytes : int;
  held_over_live : float;
}

type finding = { pathology : string; detail : string; evidence : string list }

type report = {
  scenario : string;
  ncpus : int;
  events : int;
  result : Workload.Trace.result;
  ops_per_sec : float;
  alloc_lat : percentiles;
  free_lat : percentiles;
  frag_curve : frag_point list;
  findings : finding list;
  probe : string list;
}

let percentiles_of lats =
  let a = Array.of_list lats in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then { count = 0; p50 = 0; p99 = 0; pmax = 0 }
  else
    {
      count = n;
      p50 = a.((n - 1) / 2);
      p99 = a.(99 * (n - 1) / 100);
      pmax = a.(n - 1);
    }

let ev_str e = Format.asprintf "%a" Flightrec.Event.pp e

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* Detection thresholds.  Deliberately coarse: a finding should mean
   "this run is visibly sick", not "this run is imperfect", so the
   best-case scenarios stay clean (asserted by test/scenario). *)
let convoy_min_acquires = 50
let convoy_contended_pct = 25
let frag_min_pages = 16
let frag_min_ratio = 4.0
let frag_min_live = 4096
let osc_min_alternations = 6
let tail_min_ops = 200
let tail_p99_over_p50 = 8

let convoy_findings fr =
  Flightrec.Report.lock_stats fr
  |> List.filter_map (fun (addr, (st : Flightrec.Report.lock_stat)) ->
         if
           st.acquires >= convoy_min_acquires
           && st.contended * 100 >= convoy_contended_pct * st.acquires
         then begin
           let name = Flightrec.Recorder.lock_name fr addr in
           let contended =
             Flightrec.Recorder.events fr
               ~kind:(function
                 | Flightrec.Event.Lock_acquire { lock; spins } ->
                     lock = addr && spins > 0
                 | _ -> false)
               |> List.rev
           in
           let examples = take 3 contended in
           Some
             {
               pathology = "lock-convoy";
               detail =
                 Printf.sprintf
                   "%s: %d of %d acquires contended (%d%%), %d spins total, \
                    worst acquire spun %d times"
                   name st.contended st.acquires
                   (100 * st.contended / st.acquires)
                   st.spins st.spins_max;
               evidence =
                 Printf.sprintf
                   "%d contended Lock_acquire events recorded on %s; latest:"
                   (List.length contended) name
                 :: List.map ev_str examples;
             }
         end
         else None)

(* Fragmentation is retention, not warmup: only samples strictly after
   the live-set peak count, so a cache filling up while the workload
   ramps is never reported — pages still held once the workload has let
   most of its memory go are. *)
let frag_findings ~page_bytes fr curve =
  let arr = Array.of_list curve in
  let peak = ref (-1) and peak_live = ref 0 in
  Array.iteri
    (fun i p ->
      if p.live_bytes > !peak_live then begin
        peak_live := p.live_bytes;
        peak := i
      end)
    arr;
  let worst = ref None in
  Array.iteri
    (fun i p ->
      if
        i > !peak
        && p.live_bytes >= frag_min_live
        && p.granted_pages >= frag_min_pages
      then
        match !worst with
        | Some w when w.held_over_live >= p.held_over_live -> ()
        | _ -> worst := Some p)
    arr;
  match !worst with
  | Some p when p.held_over_live >= frag_min_ratio ->
      let count k =
        List.length
          (Flightrec.Recorder.events fr
             ~kind:(function e -> k e))
      in
      let grabs =
        count (function Flightrec.Event.Page_grab _ -> true | _ -> false)
      in
      let returns =
        count (function Flightrec.Event.Page_return _ -> true | _ -> false)
      in
      let example =
        Flightrec.Recorder.events fr
          ~kind:(function Flightrec.Event.Page_grab _ -> true | _ -> false)
        |> take 1 |> List.map ev_str
      in
      [
        {
          pathology = "fragmentation";
          detail =
            Printf.sprintf
              "%d pages (%d bytes) held against %d live bytes (%.1fx) at op %d"
              p.granted_pages
              (p.granted_pages * page_bytes)
              p.live_bytes p.held_over_live p.at_ops;
          evidence =
            Printf.sprintf "%d Page_grab events vs %d Page_return events" grabs
              returns
            :: example;
        };
      ]
  | _ -> []

(* Drain/refill oscillation: per size class, count direction changes in
   the sequence of overflow drains ([Gbl_put { drain = true }]) and
   refills from the page layer ([Gbl_get { miss = true }]). *)
let oscillation_findings fr =
  let per_si = Hashtbl.create 8 in
  List.iter
    (fun (e : Flightrec.Event.t) ->
      let dir =
        match e.Flightrec.Event.kind with
        | Flightrec.Event.Gbl_put { si; drain = true } -> Some (si, `Down)
        | Flightrec.Event.Gbl_get { si; miss = true } -> Some (si, `Up)
        | _ -> None
      in
      match dir with
      | None -> ()
      | Some (si, d) ->
          let last, alts, downs, ups, examples =
            match Hashtbl.find_opt per_si si with
            | Some x -> x
            | None -> (None, 0, 0, 0, [])
          in
          let alts =
            match last with Some l when l <> d -> alts + 1 | _ -> alts
          in
          let downs = if d = `Down then downs + 1 else downs in
          let ups = if d = `Up then ups + 1 else ups in
          let examples =
            if List.length examples < 4 && Some d <> last then e :: examples
            else examples
          in
          Hashtbl.replace per_si si (Some d, alts, downs, ups, examples))
    (Flightrec.Recorder.events fr);
  Hashtbl.fold (fun si x acc -> (si, x) :: acc) per_si []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.filter_map (fun (si, (_, alts, downs, ups, examples)) ->
         if alts >= osc_min_alternations then
           Some
             {
               pathology = "drain-refill-oscillation";
               detail =
                 Printf.sprintf
                   "size class %d: global layer drained overflow %d times and \
                    refilled from the page layer %d times (%d alternations)"
                   si downs ups alts;
               evidence =
                 Printf.sprintf
                   "alternating Gbl_put(drain)/Gbl_get(miss) events on class \
                    %d; first turns:"
                   si
                 :: List.map ev_str (List.rev examples);
             }
         else None)

let tail_findings fr (alloc_lat : percentiles) =
  if
    alloc_lat.count >= tail_min_ops
    && alloc_lat.p50 > 0
    && alloc_lat.p99 >= tail_p99_over_p50 * alloc_lat.p50
  then begin
    let allocs =
      Flightrec.Recorder.events fr
        ~kind:(function Flightrec.Event.Alloc _ -> true | _ -> false)
    in
    let slow =
      List.filter
        (fun (e : Flightrec.Event.t) ->
          match e.Flightrec.Event.kind with
          | Flightrec.Event.Alloc { layer; _ } ->
              layer <> Flightrec.Event.Percpu
          | _ -> false)
        allocs
    in
    let grabs =
      Flightrec.Recorder.events fr
        ~kind:(function Flightrec.Event.Page_grab _ -> true | _ -> false)
    in
    [
      {
        pathology = "latency-tail";
        detail =
          Printf.sprintf
            "alloc p99 = %d cycles vs p50 = %d (%dx), max %d over %d allocs"
            alloc_lat.p99 alloc_lat.p50
            (alloc_lat.p99 / max 1 alloc_lat.p50)
            alloc_lat.pmax alloc_lat.count;
        evidence =
          Printf.sprintf
            "%d of %d recorded allocations left the per-CPU layer; %d \
             Page_grab events"
            (List.length slow) (List.length allocs) (List.length grabs)
          :: List.map ev_str (take 2 slow);
      };
    ]
  end
  else []

let analyze ?(windows = 16) ?(which = Baseline.Allocator.Newkma) ~name t =
  if windows < 1 then invalid_arg "Scenario.Pathology.analyze: windows < 1";
  let ncpus = max 1 (Workload.Trace.ncpus t) in
  let prev = Flightrec.Recorder.installed () in
  let fr = Flightrec.Recorder.create ~ncpus () in
  (* Install before boot so the allocator's lock-name registrations
     land in this recorder and findings name locks symbolically. *)
  Flightrec.Recorder.install fr;
  Fun.protect
    ~finally:(fun () ->
      match prev with
      | Some r -> Flightrec.Recorder.install r
      | None -> Flightrec.Recorder.uninstall ())
  @@ fun () ->
  (* A kmem arm's probe carries the [Kma.Kmem.t] the heapcheck
     fragmentation walk needs.  Without one the fragmentation samples
     carry no page counts (the curve still tracks live bytes), and
     lock-free arms report their retry counters instead. *)
  let m, a, p = Workload.Rig.fresh_probed which ~ncpus () in
  let kmem = p.Baseline.Allocator.kmem in
  let page_bytes =
    Option.fold kmem ~none:0 ~some:(fun k ->
        (Kma.Kmem.params k).Kma.Params.page_bytes)
  in
  let alloc_lats = ref [] and free_lats = ref [] in
  let on_op ~cpu:_ ~alloc ~latency =
    if alloc then alloc_lats := latency :: !alloc_lats
    else free_lats := latency :: !free_lats
  in
  let s = Workload.Trace.start m a t in
  let total = List.length t in
  let window = max 1 ((total + windows - 1) / windows) in
  let curve = ref [] in
  let consumed = ref 0 in
  let sample () =
    let live = Workload.Trace.live_bytes s in
    let point =
      match kmem with
      | Some kmem ->
          (* Between [step] windows every simulated CPU is parked
             between operations: a quiescent point, so the heapcheck
             walk is sound. *)
          let f = Heapcheck.fragmentation kmem in
          Heapcheck.checkpoint kmem;
          {
            at_ops = !consumed;
            granted_pages = f.Heapcheck.granted_pages;
            live_bytes = live;
            held_over_live =
              (if live = 0 then Float.nan
               else
                 float_of_int (f.Heapcheck.granted_pages * page_bytes)
                 /. float_of_int live);
          }
      | None ->
          {
            at_ops = !consumed;
            granted_pages = 0;
            live_bytes = live;
            held_over_live = Float.nan;
          }
    in
    curve := point :: !curve
  in
  let continue = ref (total > 0) in
  while !continue do
    continue := Workload.Trace.step ~on_op s window;
    consumed := min total (!consumed + window);
    sample ()
  done;
  let final_live = Workload.Trace.live_bytes s in
  let result = Workload.Trace.finish s in
  let stats =
    Option.map
      (fun st -> "probe: " ^ Lockfree.Stats.to_string st)
      p.Baseline.Allocator.stats
  in
  (* The drain oracle is only meaningful with every block returned;
     skip it when the trace leaves memory live. *)
  let drain =
    match p.Baseline.Allocator.drained with
    | Some oracle when final_live = 0 ->
        Some
          ("probe: drain-oracle: " ^ Option.value (oracle ()) ~default:"clean")
    | _ -> None
  in
  let probe = List.filter_map Fun.id [ stats; drain ] in
  let frag_curve = List.rev !curve in
  let alloc_lat = percentiles_of !alloc_lats in
  let free_lat = percentiles_of !free_lats in
  let findings =
    tail_findings fr alloc_lat
    @ frag_findings ~page_bytes fr frag_curve
    @ oscillation_findings fr
    @ convoy_findings fr
  in
  let ops_per_sec =
    Workload.Rig.pairs_per_sec (Sim.Machine.config m)
      ~pairs:result.Workload.Trace.ops ~cycles:result.Workload.Trace.cycles
  in
  {
    scenario = name;
    ncpus;
    events = total;
    result;
    ops_per_sec;
    alloc_lat;
    free_lat;
    frag_curve;
    findings;
    probe;
  }

let to_string r =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "scenario %s: %d CPUs, %d trace events\n" r.scenario r.ncpus r.events;
  pf "result: %d ops (%d failed allocs, %d skipped frees) in %d cycles (%.0f ops/s)\n"
    r.result.Workload.Trace.ops r.result.Workload.Trace.failures
    r.result.Workload.Trace.skipped_frees r.result.Workload.Trace.cycles
    r.ops_per_sec;
  let pp_lat what (p : percentiles) =
    pf "%s latency (cycles): n=%d p50=%d p99=%d max=%d\n" what p.count p.p50
      p.p99 p.pmax
  in
  pp_lat "alloc" r.alloc_lat;
  pp_lat "free " r.free_lat;
  pf "fragmentation curve (at-ops granted-pages live-bytes held/live):\n";
  List.iter
    (fun p ->
      let ratio =
        if Float.is_nan p.held_over_live then "-"
        else Printf.sprintf "%.2f" p.held_over_live
      in
      pf "  %6d %5d %8d %s\n" p.at_ops p.granted_pages p.live_bytes ratio)
    r.frag_curve;
  (match r.findings with
  | [] -> pf "findings: none\n"
  | fs ->
      pf "findings (%d):\n" (List.length fs);
      List.iter
        (fun f ->
          pf "  [%s] %s\n" f.pathology f.detail;
          List.iter (fun e -> pf "      evidence: %s\n" e) f.evidence)
        fs);
  List.iter (fun l -> pf "%s\n" l) r.probe;
  Buffer.contents b
