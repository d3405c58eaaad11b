(* The experiment table behind kma_bench and bench/main.  Every
   experiment is one record: a cmdliner term over its own flags that
   evaluates to a closure, plus the two properties bench/main forwards
   its global flags by.  Evaluating a term runs nothing, so a caller
   can parse every command line it will run before it runs any. *)

open Cmdliner

exception Check_failed of string

type check = Lockcheck | Heapcheck | Flightrec

type ledger = {
  jobs : int;
  scenarios : (string * float) list;
  service : (string * Service.outcome) list;
}

let quiet = { jobs = 1; scenarios = []; service = [] }

(* Host-side wall clock: monotonic, so NTP steps or host clock slews can
   never produce negative or skewed times (Unix.gettimeofday is wall
   time and can move backwards). *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let section = Experiments.Series.heading

(* --- Flag values.  Every count, size and rate is range-checked at
   parse time, so a bad value is a usage error (exit 124) instead of an
   exception escaping from the simulator. --- *)

let int_in ?(hi = max_int) lo =
  let range =
    if hi = max_int then Printf.sprintf ">= %d" lo
    else Printf.sprintf "in [%d, %d]" lo hi
  in
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= lo && n <= hi -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not an integer %s" s range))
  in
  Arg.conv (parse, Format.pp_print_int)

let float_in lo hi =
  let parse s =
    match float_of_string_opt (String.trim s) with
    | Some r when r >= lo && r <= hi -> Ok r
    | _ ->
        Error (`Msg (Printf.sprintf "%S is not a number in [%g, %g]" s lo hi))
  in
  Arg.conv (parse, fun ppf r -> Format.fprintf ppf "%g" r)

let positive_float =
  let parse s =
    match float_of_string_opt (String.trim s) with
    | Some r when r > 0. && Float.is_finite r -> Ok r
    | _ -> Error (`Msg (Printf.sprintf "%S is not a positive number" s))
  in
  Arg.conv (parse, fun ppf r -> Format.fprintf ppf "%g" r)

let cpus_in = int_in ~hi:Sim.Config.max_cpus 1

(* Producer/consumer pairs: their rings must fit the scratch region. *)
let pairs_in = int_in ~hi:Workload.Crosscpu.max_pairs 1

(* An integer flag of at least [lo]: counts and sizes default to 1. *)
let count ?(lo = 1) ?docv name default doc =
  Arg.(value & opt (int_in lo) default & info [ name ] ?docv ~doc)

let ncpus ?(doc = "CPUs.") default =
  Arg.(value & opt cpus_in default & info [ "cpus" ] ~doc)

let cpu_list ?(elt = cpus_in) ?(name = "cpus") ?(doc = "CPU counts to sweep.")
    default =
  Arg.(value & opt (list elt) default & info [ name ] ~docv:"N,N,..." ~doc)

let bytes = count "bytes" 256 "Block size."
let seed default doc = Arg.(value & opt int default & info [ "seed" ] ~doc)

let gnuplot =
  Arg.(
    value
    & opt (some string) None
    & info [ "gnuplot" ] ~docv:"PREFIX"
        ~doc:"Write PREFIX.dat and PREFIX.gp for rendering with gnuplot.")

let jobs_flag =
  Arg.(
    value
    & opt (int_in 1) (Parallel.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Fan the sweep's independent cells out over $(docv) domains \
           (default: the host's recommended domain count).  Results are \
           bit-identical at any job count.")

let geometry_flag =
  let parse s = Result.map_error (fun m -> `Msg m) (Sim.Geometry.of_string s) in
  let print ppf g = Format.pp_print_string ppf (Sim.Geometry.to_string g) in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "geometry" ] ~docv:"SPEC"
        ~doc:
          (* Generated from the default itself, so the list of keys
             cannot drift from the parser's. *)
          (Printf.sprintf
             "Cache geometry and cost model for the simulated machine, as \
              a comma-separated key=value list of any of the keys of the \
              recorded-results default, which is %s.  Overrides the \
              $(b,KMA_GEOMETRY) environment variable."
             (Sim.Geometry.to_string Sim.Geometry.default)))

(* KMA_GEOMETRY is read once, before any flag, so --geometry wins. *)
let init_geometry prog =
  match Sim.Geometry.of_env () with
  | Ok g -> Sim.Geometry.set_ambient g
  | Error msg ->
      Printf.eprintf "%s: bad %s: %s\n" prog Sim.Geometry.env_var msg;
      exit 2

(* Sim.Config refuses a machine with more NUMA nodes than CPUs, so a
   command that takes --geometry checks the node count it will run
   under (the flag's, else the ambient one) against the fewest CPUs it
   simulates.  An empty [cpus] checks nothing: numa sets the node count
   of each cell itself. *)
let geometry_for cpus =
  let fit geometry cpus =
    let g = Option.value geometry ~default:(Sim.Geometry.ambient ()) in
    let fewest = List.fold_left min max_int cpus in
    if g.Sim.Geometry.nodes <= fewest then `Ok geometry
    else
      `Error
        ( true,
          Printf.sprintf
            "geometry nodes=%d exceeds %d, the fewest CPUs this command \
             simulates"
            g.Sim.Geometry.nodes fewest )
  in
  Term.(ret (const fit $ geometry_flag $ cpus))

(* Allocator names are user input; an unknown name fails usage-style
   with the full roster, so a typo never falls back to a default arm. *)
let alloc_conv =
  Arg.enum
    (List.map
       (fun w -> (Baseline.Allocator.name_of w, w))
       Baseline.Allocator.(all @ extras))

let allocs_flag default =
  Arg.(
    value
    & opt (list alloc_conv) default
    & info [ "allocs" ] ~docv:"NAME,NAME,..."
        ~doc:
          (Printf.sprintf "Allocator arms to sweep (any of: %s)."
             Baseline.Allocator.roster_string))

(* The selected arms with the --bytes they are measured at, which every
   one of them must be able to serve: a block size above an arm's
   largest class would fail inside the measured loop. *)
let arms_serving whichs =
  let fit whichs bytes =
    let over w =
      match Baseline.Allocator.max_bytes w with
      | Some most when bytes > most ->
          Some
            (Printf.sprintf "%s serves at most %d"
               (Baseline.Allocator.name_of w)
               most)
      | _ -> None
    in
    match List.filter_map over whichs with
    | [] -> `Ok (whichs, bytes)
    | why ->
        `Error
          ( true,
            Printf.sprintf "--bytes %d is too large: %s" bytes
              (String.concat ", " why) )
  in
  Term.(ret (const fit $ whichs $ bytes))

(* --- The checkers.  All three are host-side, so simulated cycle counts
   are unchanged; each wrapper arms its checker around a run, prints
   the report after it and disarms it. --- *)

let check_name = function
  | Lockcheck -> "lockcheck"
  | Heapcheck -> "heapcheck"
  | Flightrec -> "flight-recorder"

let lockcheck_flag =
  Arg.(
    value & flag
    & info [ check_name Lockcheck ]
        ~doc:
          "Validate the synchronization discipline during the run \
           (lock-order graph / ABBA detection, per-CPU interrupt \
           discipline, locks held across VM calls) and print the \
           lockcheck report. Zero simulated-cycle overhead; a violation \
           aborts with both acquisition backtraces.")

let heapcheck_mode =
  Arg.enum [ ("paranoid", Heapcheck.Paranoid); ("sweep", Heapcheck.Sweep 64) ]

let heapcheck_flag =
  Arg.(
    value
    & opt ~vopt:(Some Heapcheck.Paranoid) (some heapcheck_mode) None
    & info [ check_name Heapcheck ] ~docv:"MODE"
        ~doc:
          "Check heap consistency (freelist count words, page-descriptor \
           states, pagepool hints, block conservation, duplicate blocks) \
           at the run's quiescent points and print the heapcheck report. \
           MODE is $(b,paranoid) (default) or $(b,sweep). Zero \
           simulated-cycle overhead; any violation makes the exit status \
           non-zero.")

let flightrec_flag =
  Arg.(
    value & flag
    & info [ check_name Flightrec ]
        ~doc:
          "Record a per-CPU event trace (allocator layers, spinlocks, VM \
           system) and print the flight-recorder report after the run. \
           Zero simulated-cycle overhead.")

let armed arm disarm report f =
  arm ();
  Fun.protect ~finally:disarm (fun () ->
      let r = f () in
      print_newline ();
      report ();
      r)

let with_lockcheck on f =
  if not on then f ()
  else
    armed
      (fun () -> Lockcheck.enable ())
      Lockcheck.disable
      (fun () -> print_string (Lockcheck.report ()))
      f

let with_heapcheck mode f =
  match mode with
  | None -> f ()
  | Some mode ->
      armed
        (fun () -> Heapcheck.enable ~abort:false ~mode ())
        Heapcheck.disable
        (fun () ->
          print_string (Heapcheck.report ());
          let n = Heapcheck.violation_count () in
          if n > 0 then
            raise
              (Check_failed (Printf.sprintf "heapcheck: %d violation(s)" n)))
        f

let with_flightrec on ~ncpus f =
  if not on then f ()
  else
    let fr = Flightrec.Recorder.create ~ncpus () in
    armed
      (fun () -> Flightrec.Recorder.install fr)
      Flightrec.Recorder.uninstall
      (fun () -> print_string (Flightrec.Report.to_string fr))
      f

(* --- The table's record, and the function that makes one --- *)

type t = {
  name : string;
  fans_out : bool;
  checks : check list;
  info : Cmd.info;
  term : (unit -> ledger) Term.t;
}

(* What a body is run with: the job count it may fan out over, and the
   armed checkers to wrap around its run on [ncpus] simulated CPUs. *)
type env = { jobs : int; checked : 'a. ?ncpus:int -> (unit -> 'a) -> 'a }

(* [geometry], when given, is the CPU counts the command simulates: it
   then takes --geometry, checked against them. *)
let experiment' ?(fans_out = false) ?(checks = []) ?geometry name ~doc body =
  let accepts c flag off = if List.mem c checks then flag else Term.const off in
  let run body geometry jobs lockcheck heapcheck flightrec () : ledger =
    Option.iter Sim.Geometry.set_ambient geometry;
    (* Checker serialization (DESIGN.md §9): the flight recorder and
       lockcheck keep host-global state, so a run that arms either one
       is clamped to jobs=1; heapcheck shards and composes with any job
       count. *)
    let jobs =
      if (lockcheck || flightrec) && jobs > 1 then begin
        prerr_endline
          "note: --flight-recorder/--lockcheck keep host-global state; \
           forcing --jobs 1 (heapcheck shards and is unaffected)";
        1
      end
      else jobs
    in
    let checked ?(ncpus = 1) f =
      with_heapcheck heapcheck (fun () ->
          with_lockcheck lockcheck (fun () ->
              with_flightrec flightrec ~ncpus f))
    in
    { (body { jobs; checked }) with jobs }
  in
  {
    name;
    fans_out;
    checks;
    info = Cmd.info name ~doc;
    term =
      Term.(
        const run $ body
        $ (match geometry with
          | Some cpus -> geometry_for cpus
          | None -> const None)
        $ (if fans_out then jobs_flag else const 1)
        $ accepts Lockcheck lockcheck_flag false
        $ accepts Heapcheck heapcheck_flag None
        $ accepts Flightrec flightrec_flag false);
  }

(* The common case: a body that prints and records nothing. *)
let experiment ?fans_out ?checks ?geometry name ~doc body =
  experiment' ?fans_out ?checks ?geometry name ~doc
    (Term.map (fun body env -> body env; quiet) body)

let every_check = [ Lockcheck; Heapcheck; Flightrec ]

(* --- The paper's experiments (kma_bench's subcommands) --- *)

(* Figure 7's claims, each printed only when the sweep has its points. *)
let fig7_verdicts points =
  let open Baseline.Allocator in
  let at ncpus which =
    List.find_map
      (fun (p : Experiments.Fig7.point) ->
        if p.which = which && p.ncpus = ncpus then Some p.pairs_per_sec
        else None)
      points
  in
  let ratio ncpus fmt =
    match (at ncpus Cookie, at ncpus Oldkma) with
    | Some c, Some o -> Some (Printf.sprintf fmt (c /. o))
    | _ -> None
  in
  let speedup _ =
    "cookie speedup: "
    ^ String.concat ", "
        (List.map
           (fun (n, s) -> Printf.sprintf "%dcpu=%.1fx" n s)
           (Experiments.Fig7.speedup points ~which:Cookie))
  in
  match
    List.filter_map Fun.id
      [
        Option.map speedup (at 1 Cookie);
        ratio 1 "single-CPU cookie/oldkma: %.1fx (paper: 15x)";
        ratio 25 "25-CPU cookie/oldkma: %.0fx (paper: >1000x)";
      ]
  with
  | [] -> ()
  | lines ->
      print_newline ();
      List.iter print_endline lines

let fig7 =
  let semilog =
    Arg.(
      value & flag
      & info [ "semilog" ] ~doc:"Print the Figure 8 (log10) view too.")
  in
  let run (whichs, bytes) cpus iters semilog gnuplot env =
    let points =
      Experiments.Fig7.run ~jobs:env.jobs ~whichs ~cpus ~iters ~bytes ()
    in
    Experiments.Fig7.print_linear points;
    if semilog then Experiments.Fig7.print_semilog points;
    Option.iter
      (fun prefix ->
        Experiments.Plot.write_fig7 points ~prefix;
        Experiments.Plot.write_fig8 points ~prefix:(prefix ^ "-semilog");
        Printf.printf "wrote %s.{dat,gp} and %s-semilog.{dat,gp}\n" prefix
          prefix)
      gnuplot;
    fig7_verdicts points
  in
  let cpus = cpu_list Experiments.Fig7.default_cpus in
  experiment "fig7" ~fans_out:true ~geometry:cpus
    ~doc:
      "Best-case pairs/s vs CPUs (Figure 7); $(b,--allocs) swaps in any arm \
       from the laboratory roster."
    Term.(
      const run
      $ arms_serving (allocs_flag Baseline.Allocator.all)
      $ cpus
      $ count "iters" 2000 "Timed alloc/free pairs per CPU."
      $ semilog $ gnuplot)

let fig8 =
  let run whichs cpus iters env =
    Experiments.Fig7.print_semilog
      (Experiments.Fig7.run ~jobs:env.jobs ~whichs ~cpus ~iters ())
  in
  experiment "fig8" ~fans_out:true
    ~doc:"Same data as fig7 on a semilog scale (Figure 8)."
    Term.(
      const run
      $ allocs_flag Baseline.Allocator.all
      $ cpu_list Experiments.Fig7.default_cpus
      $ count "iters" 2000 "Pairs/CPU.")

let fig9 =
  (* The memory must also be whole cache lines of the geometry the run
     will use.  fig9 takes no --geometry of its own: both drivers
     install theirs (or KMA_GEOMETRY) as the ambient one before they
     parse a command line. *)
  let memory_words =
    let line_aligned words =
      let line = (Sim.Geometry.ambient ()).Sim.Geometry.line_words in
      if words mod line = 0 then `Ok words
      else
        `Error
          ( true,
            Printf.sprintf
              "--memory-words %d is not a multiple of the cache line (%d \
               words)"
              words line )
    in
    Term.(
      ret
        (const line_aligned
        $ count ~lo:16384 "memory-words" (1024 * 1024)
            "Simulated memory size in words (at least 16384: the control \
             region plus one vmblk; a multiple of the cache line)."))
  in
  let alloc =
    Arg.(
      value
      & opt alloc_conv Baseline.Allocator.Newkma
      & info [ "allocator" ] ~doc:"Allocator to sweep.")
  in
  let run which memory_words cap gnuplot env =
    (* Each sweep runs every size on ONE machine (cache warmth carries
       from size to size), so the per-size cells are not independent;
       the arm's sweep and mk's are, and fan out. *)
    let results, mk =
      match
        Parallel.map ~jobs:env.jobs
          (fun which -> Experiments.Fig9.run ~which ~memory_words ~cap ())
          [ which; Baseline.Allocator.Mk ]
      with
      | [ results; mk ] -> (results, mk)
      | _ -> assert false
    in
    Experiments.Fig9.print results;
    Option.iter
      (fun prefix ->
        Experiments.Plot.write_fig9 results ~prefix;
        Printf.printf "wrote %s.dat and %s.gp\n" prefix prefix)
      gnuplot;
    Printf.printf "sweep completed without wedging: %b\n"
      (Experiments.Fig9.completed results);
    (* The paper's side claim: an allocator without coalescing cannot
       complete this benchmark. *)
    let wedged = List.filter (fun r -> r.Workload.Worstcase.blocks <= 10) mk in
    Printf.printf
      "mk (no coalescing) wedged on %d of %d sizes, as the paper predicts\n"
      (List.length wedged) (List.length mk)
  in
  experiment "fig9" ~fans_out:true
    ~doc:
      "Worst-case pairs/s vs block size (Figure 9), with mk's sweep \
       alongside (an allocator without coalescing wedges)."
    Term.(
      const run $ alloc
      $ memory_words
      $ count ~lo:0 "cap" 0 "Max blocks per size (0 = until exhaustion)."
      $ gnuplot)

let opcounts =
  let run env =
    Experiments.Opcounts.print (Experiments.Opcounts.run ~jobs:env.jobs ())
  in
  experiment "opcounts" ~fans_out:true
    ~doc:"Warm fast-path instruction counts (E2)." (Term.const run)

let analysis =
  let run samples env =
    env.checked (fun () ->
        Experiments.Analysis.print (Experiments.Analysis.run ~samples ()))
  in
  experiment "analysis" ~checks:[ Lockcheck ]
    ~doc:
      "allocb/freeb access-cost profile on the old allocator (E1); \
       $(b,--lockcheck) validates the synchronization discipline (E9)."
    Term.(const run $ count "samples" 200 "Operations to trace.")

let missrates =
  let run ncpus txs env =
    env.checked ~ncpus (fun () ->
        let r = Experiments.Missrates.run ~ncpus ~transactions_per_cpu:txs () in
        Experiments.Missrates.print r;
        Printf.printf "all rates within analytic bounds: %b\n"
          (Experiments.Missrates.within_bounds r))
  in
  let cpus = ncpus 4 in
  experiment "missrates"
    ~geometry:(Term.map (fun n -> [ n ]) cpus)
    ~checks:every_check
    ~doc:
      "Per-layer miss rates under the DLM/OLTP workload (E6); \
       $(b,--flight-recorder) adds the time-resolved trace report; \
       $(b,--lockcheck) validates the synchronization discipline; \
       $(b,--heapcheck) verifies heap consistency after the run."
    Term.(
      const run $ cpus $ count "transactions" 3000 "Transactions per CPU.")

let pressure =
  let rates =
    Arg.(
      value
      & opt (list (float_in 0. 1.)) Experiments.Pressure.default_rates
      & info [ "rates" ] ~docv:"R,R,..."
          ~doc:"Grant-denial rates to sweep, each in [0, 1].")
  in
  let run ncpus rounds batch rates seed env =
    env.checked ~ncpus (fun () ->
        let r =
          Experiments.Pressure.run ~jobs:env.jobs ~ncpus ~rounds ~batch ~rates
            ~seed ()
        in
        Experiments.Pressure.print r;
        let has x = List.exists (Float.equal x) rates in
        if has 0.0 && has 0.2 then
          Printf.printf "\ngraceful degradation at 20%% denials: %b\n"
            (Experiments.Pressure.graceful r))
  in
  experiment "pressure" ~fans_out:true ~checks:every_check
    ~doc:
      "Memory pressure: throughput and pages held vs VM grant-denial rate, \
       cookie/newkma (reap + adaptive targets) vs mk (E8); $(b,--lockcheck) \
       validates the synchronization discipline; $(b,--heapcheck) verifies \
       heap consistency after each cell."
    Term.(
      const run $ ncpus 4
      $ count "rounds" 30 "Alloc/free rounds per CPU."
      $ count "batch" 120 "Blocks per round."
      $ rates
      $ seed 42 "Fault-injection seed.")

let fuzz =
  let mode =
    Arg.(
      value
      & opt heapcheck_mode Heapcheck.Paranoid
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Consistency-check cadence: $(b,paranoid) checks after every \
             op, $(b,sweep) every 64 ops.")
  in
  let switch name doc = Arg.(value & flag & info [ name ] ~doc) in
  let fault_rate =
    Arg.(
      value
      & opt (float_in 0. 1.) 0.
      & info [ "fault-rate" ]
          ~doc:
            "VM grant-denial rate armed by the trace's fault-injection ops \
             (0 removes those ops from the mix).")
  in
  let run ops seed mode pressure debug fault_rate _env =
    let open Heapcheck.Fuzz in
    let check_every =
      match mode with Heapcheck.Paranoid -> 1 | Heapcheck.Sweep n -> n
    in
    let cfg = config ~ops ~check_every ~pressure ~debug ~fault_rate ~seed () in
    let o = Heapcheck.Fuzz.run cfg in
    Printf.printf
      "fuzz: seed %d, %d ops (%d allocs, %d frees), %d checks, %d cycles\n"
      seed ops o.allocs o.frees o.checks o.cycles;
    match o.failure with
    | None -> print_endline "all consistency checks passed"
    | Some f ->
        Printf.printf "FAILED after op %d (%s):\n" f.index
          (Format.asprintf "%a" pp_op f.op);
        List.iter (fun p -> print_endline ("  " ^ p)) f.problems;
        let minimized = minimize cfg (gen cfg) in
        Format.printf "minimized reproducer (%d ops):@.%a@."
          (List.length minimized) pp_trace minimized;
        raise (Check_failed "fuzz: a consistency check failed")
  in
  experiment "fuzz"
    ~doc:
      "Differential fuzz of the new allocator against a reference model \
       with full heap-consistency checking; prints a minimized reproducer \
       and exits non-zero on any violation."
    Term.(
      const run
      $ count "ops" 10_000 "Trace length."
      $ seed 1 "Trace seed." $ mode
      $ switch "pressure"
          "Enable the memory-pressure subsystem (adaptive targets)."
      $ switch "debug" "Debug kernel (poisoned frees)."
      $ fault_rate)

let cyclic =
  let run days _env =
    let r = Workload.Cyclic.run_kmem ~days () in
    section "Cyclic day/night workload (new allocator)";
    Printf.printf
      "day allocs: %d\nnight large allocs: %d (failures: %d)\n\
       pages held after day: %d\npages held at night: %d\n"
      r.Workload.Cyclic.day_allocs r.Workload.Cyclic.night_allocs
      r.Workload.Cyclic.night_failures r.Workload.Cyclic.day_peak_pages
      r.Workload.Cyclic.night_pages
  in
  experiment "cyclic"
    ~doc:"Day/night workload: coalescing reuses day memory at night."
    Term.(const run $ count "days" 3 "Day/night cycles.")

let crosscpu =
  let run whichs pairs blocks env =
    section "Producer/consumer flow through the global layer";
    let rows =
      Parallel.map ~jobs:env.jobs
        (fun which ->
          let r =
            Workload.Crosscpu.run ~which ~pairs ~blocks_per_pair:blocks ()
          in
          [
            Baseline.Allocator.name_of which;
            Experiments.Series.sci r.Workload.Crosscpu.transfers_per_sec;
          ])
        whichs
    in
    Experiments.Series.table ~header:[ "allocator"; "transfers/s" ] rows
  in
  experiment "crosscpu" ~fans_out:true
    ~doc:"Cross-CPU producer/consumer throughput (the global layer's job)."
    Term.(
      const run
      $ allocs_flag Baseline.Allocator.(all @ [ Lazybuddy ])
      $ Arg.(
          value & opt pairs_in 2
          & info [ "pairs" ] ~doc:"Producer/consumer pairs.")
      $ count "blocks" 2000 "Blocks transferred per pair.")

let trace =
  let run ops seed _env =
    let t = Workload.Trace.synthesize ~ops ~seed () in
    (match Workload.Trace.validate t with
    | Ok () -> ()
    | Error e -> failwith ("synthesized trace invalid: " ^ e));
    section
      (Printf.sprintf "Trace replay: %d events, seed %d, one CPU"
         (List.length t) seed);
    let rows =
      List.map
        (fun which ->
          let m = Sim.Machine.create (Workload.Rig.paper_config ~ncpus:1 ()) in
          let a = Baseline.Allocator.create which m in
          let r = Workload.Trace.replay m t a in
          let cfg = Sim.Machine.config m in
          [
            Baseline.Allocator.name_of which;
            string_of_int r.Workload.Trace.failures;
            string_of_int r.Workload.Trace.skipped_frees;
            Experiments.Series.sci
              (float_of_int r.Workload.Trace.ops
              /. Sim.Config.seconds_of_cycles cfg r.Workload.Trace.cycles);
          ])
        Baseline.Allocator.(all @ [ Lazybuddy ])
    in
    Experiments.Series.table
      ~header:[ "allocator"; "failures"; "skipped"; "ops/s" ]
      rows
  in
  experiment "trace"
    ~doc:
      "Synthesize an allocation trace and replay it bit-for-bit on every \
       allocator."
    Term.(
      const run
      $ count "ops" 3000 "Trace length (events)."
      $ seed 13 "Trace seed.")

let scenario =
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:"Scenario to replay ($(b,list) or omit to list the library).")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~doc:"Override the scenario's default seed.")
  in
  let scale =
    Arg.(
      value & opt positive_float 1.
      & info [ "scale" ] ~docv:"K"
          ~doc:"Rate scaling: divide recorded inter-arrival gaps by $(docv).")
  in
  let cpus =
    Arg.(
      value
      & opt (some cpus_in) None
      & info [ "cpus" ] ~docv:"N"
          ~doc:
            "Fan the trace out to $(docv) CPUs (must be a multiple of the \
             scenario's own CPU count; ids are remapped deterministically).")
  in
  let report =
    Arg.(
      value & flag
      & info [ "report" ]
          ~doc:
            "Replay under the flight recorder and print the full pathology \
             report instead of the one-line result.")
  in
  let list_library () =
    section "Scenario library";
    Experiments.Series.table
      ~header:[ "name"; "cpus"; "seed"; "target pathology"; "summary" ]
      (List.map
         (fun (s : Scenario.t) ->
           [
             s.Scenario.name;
             string_of_int s.Scenario.ncpus;
             string_of_int s.Scenario.default_seed;
             Option.value s.Scenario.target ~default:"-";
             s.Scenario.summary;
           ])
         Scenario.all)
  in
  let run name seed scale cpus windows report whichs env =
    match name with
    | None | Some "list" -> list_library ()
    | Some n -> (
        match Scenario.find n with
        | None ->
            Printf.eprintf "unknown scenario %S (try: %s)\n" n
              (String.concat ", " (Scenario.names ()));
            exit 2
        | Some sc ->
            let seed = Option.value seed ~default:sc.Scenario.default_seed in
            let t = sc.Scenario.generate ~seed in
            let t =
              if scale = 1. then t
              else Workload.Trace.scale_rate ~factor:scale t
            in
            let t =
              match cpus with
              | None -> t
              | Some c ->
                  let base = max 1 (Workload.Trace.ncpus t) in
                  if c mod base <> 0 then begin
                    Printf.eprintf
                      "--cpus %d is not a multiple of the scenario's %d\n" c
                      base;
                    exit 2
                  end;
                  Workload.Trace.fan_out ~copies:(c / base) t
            in
            (match Workload.Trace.validate t with
            | Ok () -> ()
            | Error e -> failwith ("scenario trace invalid: " ^ e));
            let one which =
              (* The default arm's label is the bare scenario name. *)
              let label =
                if which = Baseline.Allocator.Newkma then n
                else
                  Printf.sprintf "%s[%s]" n (Baseline.Allocator.name_of which)
              in
              if report then
                print_string
                  (Scenario.Pathology.to_string
                     (Scenario.Pathology.analyze ~windows ~which ~name:label t))
              else begin
                let ncpus = max 1 (Workload.Trace.ncpus t) in
                let cfg = Workload.Rig.paper_config ~ncpus () in
                let m = Sim.Machine.create cfg in
                let print_result r =
                  let cfg = Sim.Machine.config m in
                  Printf.printf
                    "scenario %s: seed %d, %d CPUs, %d events -> %d ops (%d \
                     failed, %d skipped frees) in %d cycles (%s ops/s)\n"
                    label seed ncpus (List.length t) r.Workload.Trace.ops
                    r.Workload.Trace.failures r.Workload.Trace.skipped_frees
                    r.Workload.Trace.cycles
                    (Experiments.Series.sci
                       (float_of_int r.Workload.Trace.ops
                       /. Sim.Config.seconds_of_cycles cfg
                            r.Workload.Trace.cycles))
                in
                match which with
                | Baseline.Allocator.Newkma ->
                    (* newkma booted by hand so --heapcheck can
                       checkpoint against the kmem handle after the
                       replay. *)
                    let kmem =
                      Kma.Kmem.create m
                        ~params:
                          (Kma.Params.auto
                             ~memory_words:cfg.Sim.Config.memory_words)
                        ()
                    in
                    let a =
                      {
                        Baseline.Allocator.name = "newkma";
                        alloc =
                          (fun ~bytes ->
                            match Kma.Kmem.try_alloc kmem ~bytes with
                            | Some addr -> addr
                            | None -> 0);
                        free =
                          (fun ~addr ~bytes -> Kma.Kmem.free kmem ~addr ~bytes);
                      }
                    in
                    let r = Workload.Trace.replay m t a in
                    Heapcheck.checkpoint kmem;
                    print_result r
                | w ->
                    let a, probe = Baseline.Allocator.create_probed w m in
                    let r = Workload.Trace.replay m t a in
                    print_result r;
                    Option.iter
                      (fun st ->
                        Printf.printf "  probe: %s\n"
                          (Lockfree.Stats.to_string st))
                      probe.Baseline.Allocator.stats
              end
            in
            env.checked (fun () -> List.iter one whichs))
  in
  experiment "scenario" ~checks:[ Heapcheck ]
    ~doc:
      "Replay a library scenario (production-shaped multi-CPU trace), \
       optionally scaled with $(b,--scale) / $(b,--cpus); $(b,--report) \
       prints the pathology analysis with flight-recorder evidence; \
       $(b,--allocs) replays the same trace on other roster arms (e.g. the \
       lock-free pair) under the same detectors."
    Term.(
      const run $ name_arg $ seed $ scale $ cpus
      $ count "windows" 16
          "Analysis windows (fragmentation samples) for --report."
      $ report
      $ allocs_flag [ Baseline.Allocator.Newkma ])

let lockfree =
  let run (whichs, bytes) cpus iters pairs blocks env =
    let module L = Experiments.Lockfree_arms in
    let jobs = env.jobs in
    try
      let points = L.run ~jobs ~whichs ~cpus ~iters ~bytes () in
      L.print_throughput points;
      L.print_retries points;
      L.print_crosscpu
        (L.run_crosscpu ~jobs ~whichs ~pairs ~blocks_per_pair:blocks ~bytes ());
      L.print_storm
        (L.run_storm ~jobs
           ~whichs:
             (List.filter
                (fun w -> List.mem w Baseline.Allocator.lockfree)
                whichs)
           ~cpus ())
    with L.Conservation msg ->
      raise (Check_failed ("lockfree conservation violated: " ^ msg))
  in
  let cpus = cpu_list Experiments.Lockfree_arms.default_cpus in
  let pairs =
    cpu_list ~elt:pairs_in ~name:"pairs"
      ~doc:
        "Producer/consumer pair counts for the remote-free companion sweep \
         (each pair is 2 CPUs)."
      Experiments.Lockfree_arms.default_pairs
  in
  experiment "lockfree" ~fans_out:true
    ~geometry:
      Term.(
        const (fun cpus pairs -> cpus @ List.map (( * ) 2) pairs)
        $ cpus $ pairs)
    ~doc:
      "Lock-based vs lock-free head-to-head (E13): the Figure 7 methodology \
       over the non-blocking arms, with CAS-retry and helping counters and \
       a conservation check per cell."
    Term.(
      const run
      $ arms_serving (allocs_flag Experiments.Lockfree_arms.default_whichs)
      $ cpus
      $ count "iters" 2000 "Timed alloc/free pairs per CPU."
      $ pairs
      $ count "blocks" 400 "Blocks transferred per pair (remote sweep).")

let numa =
  let nodes =
    Arg.(
      value
      & opt (list (int_in 1)) Experiments.Numa.default_nodes
      & info [ "nodes" ] ~docv:"N,N,..."
          ~doc:
            "NUMA node counts to sweep (1 = the flat baseline; node counts \
             exceeding a cell's CPU count are skipped).")
  in
  let run (whichs, bytes) cpus nodes iters depth env =
    Experiments.Numa.print ~depth
      (Experiments.Numa.run ~jobs:env.jobs ~whichs ~cpus ~nodes ~iters ~depth
         ~bytes ())
  in
  experiment "numa" ~fans_out:true ~geometry:(Term.const [])
    ~doc:
      "NUMA scaling sweep (E14): global-layer churn at 128-512 CPUs across \
       2-8 nodes, flat gblfree (newkma) vs per-node gblfree (numakma).  \
       $(b,--geometry) sets the base cost model (keys \
       nodes/node_miss/node_c2c price the cross-node surcharges); \
       $(b,--nodes) sweeps the machine's node count on top of it."
    Term.(
      const run
      $ arms_serving (allocs_flag Experiments.Numa.default_whichs)
      $ cpu_list Experiments.Numa.default_cpus
      $ nodes
      $ count "iters" 12 "Timed bursts per CPU."
      $ count "depth" 64 ~docv:"N"
          "Burst size: blocks held live at once per CPU.  Keep it above \
           twice the per-CPU cache target or the global layer goes quiet \
           and the sweep measures nothing.")

let geometry =
  let run ncpus iters depth bytes env =
    Experiments.Geomsweep.print ~ncpus ~depth
      (Experiments.Geomsweep.run ~jobs:env.jobs ~ncpus ~iters ~depth ~bytes ())
  in
  let cpus = ncpus ~doc:"CPUs per cell." 8 in
  experiment "geometry" ~fans_out:true
    ~geometry:(Term.map (fun n -> [ n ]) cpus)
    ~doc:
      "Cache-geometry sweep (E12): miss rate and cycles per \
       alloc/write/free pair vs line size and associativity, newkma vs \
       cookie.  $(b,--geometry) here sets the $(i,base) cost model the \
       sweep varies line size and associativity around."
    Term.(
      const run $ cpus
      $ count "iters" 50 "Timed bursts per CPU per cell."
      $ count "depth" 96 ~docv:"N"
          "Burst size: blocks held live at once per CPU.  The default \
           overflows the smaller geometries, which is what makes the \
           line-size axis informative."
      $ bytes)

let service =
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            "Scenario shape to serve ($(b,list) or omit to list the shapes).")
  in
  let mode =
    Arg.(
      value
      & opt
          (enum [ ("fixed", `Fixed); ("adaptive", `Adaptive); ("both", `Both) ])
          `Both
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Pool geometry: $(b,fixed), $(b,adaptive), or $(b,both) to A/B \
             them on the same load (default).")
  in
  let arrival =
    let parse s =
      match (s, Scanf.sscanf_opt s "open:%u%!" Fun.id) with
      | "closed", _ -> Ok `Closed
      | _, Some m when m >= 1 -> Ok (`Open_ns m)
      | _ ->
          Error
            (`Msg
              (Printf.sprintf
                 "bad arrival %S (want closed or open:<mean-ns>, mean >= 1)" s))
    in
    let print ppf = function
      | `Closed -> Format.pp_print_string ppf "closed"
      | `Open_ns m -> Format.fprintf ppf "open:%d" m
    in
    Arg.(
      value
      & opt (conv (parse, print)) `Closed
      & info [ "arrival" ] ~docv:"KIND"
          ~doc:
            "Request arrival: $(b,closed) (back-to-back) or \
             $(b,open:<mean-ns>) (seeded inter-arrival, latency measured \
             from the scheduled arrival).")
  in
  let refill =
    Arg.(
      value & flag
      & info [ "refill" ]
          ~doc:
            "Add a dedicated depot-refill domain (SpeedMalloc's allocation \
             core): workers never pay constructor cost in steady state.")
  in
  let list_shapes () =
    section "Service shapes (lib/scenario request graphs)";
    Experiments.Series.table
      ~header:[ "name"; "served as" ]
      (List.filter_map
         (fun (s : Scenario.t) ->
           match Service.shape_of_scenario s.Scenario.name with
           | None -> None
           | Some _ -> Some [ s.Scenario.name; s.Scenario.summary ])
         Scenario.all)
  in
  let run name domains requests seed mode refill target depot_batches arrival
      obj_bytes _env =
    match name with
    | None | Some "list" -> list_shapes ()
    | Some n -> (
        match Service.shape_of_scenario n with
        | None ->
            Printf.eprintf "unknown scenario %S (try: %s)\n" n
              (String.concat ", " (Scenario.names ()));
            exit 2
        | Some _ -> (
            let cfg =
              {
                (Service.default ~scenario:n) with
                Service.domains;
                requests;
                seed;
                refill;
                target;
                depot_batches;
                arrival;
                obj_bytes;
              }
            in
            let serve m =
              let o = Service.run { cfg with Service.mode = m } in
              print_string (Service.to_string o);
              o
            in
            match mode with
            | (`Fixed | `Adaptive) as m -> ignore (serve m)
            | `Both ->
                let f = serve `Fixed in
                print_newline ();
                let a = serve `Adaptive in
                let rate o =
                  if Float.is_nan o.Service.o_contention then 0.
                  else o.Service.o_contention
                in
                Printf.printf
                  "\nfixed vs adaptive: contended acquisitions %d -> %d (rate \
                   %.4f -> %.4f), p99 %.0f -> %.0f ns\n"
                  f.Service.o_stats.Objpool.Pstats.s_depot_contended
                  a.Service.o_stats.Objpool.Pstats.s_depot_contended (rate f)
                  (rate a) f.Service.o_p99 a.Service.o_p99))
  in
  experiment "service"
    ~doc:
      "Serve a production-shaped request load through the native per-domain \
       pool (lib/service): multi-domain workers, cross-domain frees, \
       p50/p99/p999 request latency, and depot-contention accounting, with \
       $(b,--mode both) A/B-ing fixed vs contention-adaptive pool geometry \
       (E15)."
    Term.(
      const run $ name_arg
      $ count "domains" 2 ~docv:"N" "Worker domains (default 2)."
      $ count "requests" 100_000 ~docv:"N"
          "Requests served per domain (default 100000)."
      $ seed 42 "Deterministic seed." $ mode $ refill
      $ count "target" 16 "Base magazine target (batch size)."
      $ count "depot-batches" 32 "Base depot bound, in batches."
      $ arrival
      $ count "obj-bytes" 256 "Pooled object size in bytes.")

(* --- Bench-only experiments: the ablations, the native pool and the
   scenario, service and fuzz matrices bench/main runs at fixed scale --- *)

let ablation_target =
  let run env =
    section
      "Ablation: per-CPU target (1 = no batching, the paper's free-singly \
       strawman)";
    let rows =
      Parallel.map ~jobs:env.jobs
        (fun target ->
          let cfg = Workload.Rig.paper_config ~ncpus:4 () in
          let m = Sim.Machine.create cfg in
          let params =
            let base =
              Kma.Params.auto ~memory_words:cfg.Sim.Config.memory_words
            in
            Kma.Params.make ~vmblk_pages:base.Kma.Params.vmblk_pages
              ~targets:(Array.make 9 target)
              ~gbltargets:(Array.make 9 (Kma.Params.default_gbltarget ~target))
              ()
          in
          let kmem = Kma.Kmem.create m ~params () in
          let r = Dlm.Oltp.run ~kmem ~ncpus:4 ~transactions_per_cpu:800 () in
          let stats = Kma.Kmem.stats kmem in
          (* 64-byte class carries the note + resource traffic. *)
          let si = 2 in
          [
            string_of_int target;
            Experiments.Series.pct
              (Kma.Kstats.percpu_alloc_miss_rate stats ~si);
            Experiments.Series.pct
              (Kma.Kstats.combined_alloc_miss_rate stats ~si);
            Experiments.Series.sci
              (float_of_int r.Dlm.Oltp.transactions
              /. Sim.Config.seconds_of_cycles cfg r.Dlm.Oltp.cycles);
          ])
        [ 1; 2; 5; 10; 20 ]
    in
    Experiments.Series.table
      ~header:[ "target"; "pcpu miss (64B)"; "combined miss"; "tx/s" ]
      rows;
    print_endline
      "expected: miss rates fall roughly as 1/target; throughput rises then \
       flattens"
  in
  experiment "ablation-target" ~fans_out:true
    ~doc:"Ablation A: the per-CPU target parameter." (Term.const run)

let ablation_pagepolicy =
  (* Steady churn on one size class: repeatedly free a random fraction
     of the live set and allocate back a bit less, with a tiny per-CPU
     cache so traffic reaches the page layer.  The radix order
     (fullest-first) concentrates allocations in full pages, letting
     sparse pages drain to the VM system; the emptiest-first strawman
     keeps refilling the sparse pages. *)
  let churn policy =
    let cfg =
      Workload.Rig.paper_config ~ncpus:1 ~memory_words:(1024 * 1024) ()
    in
    let m = Sim.Machine.create cfg in
    let params =
      let base = Kma.Params.auto ~memory_words:cfg.Sim.Config.memory_words in
      Kma.Params.make ~vmblk_pages:base.Kma.Params.vmblk_pages
        ~targets:(Array.make 9 2) ~gbltargets:(Array.make 9 2)
        ~page_policy:policy ()
    in
    let kmem = Kma.Kmem.create m ~params () in
    let rng = Workload.Prng.create ~seed:3 in
    let bytes = 256 in
    let final = ref (0, 0, 0) in
    Sim.Machine.run m
      [|
        (fun _ ->
          let live = ref [] in
          let alloc_n n =
            for _ = 1 to n do
              Option.iter
                (fun a -> live := a :: !live)
                (Kma.Kmem.try_alloc kmem ~bytes)
            done
          in
          (* Free each live block with probability [pct]%; the kept
             blocks stay live, in reverse order. *)
          let free_frac pct =
            let freed, kept =
              List.partition
                (fun _ -> Workload.Prng.int rng ~bound:100 < pct)
                !live
            in
            List.iter (fun a -> Kma.Kmem.free kmem ~addr:a ~bytes) freed;
            live := List.rev kept;
            List.length freed
          in
          alloc_n 600;
          for _round = 1 to 30 do
            let freed = free_frac 30 in
            (* Allocate back slightly less, so sparse pages have a
               chance to drain while the live set stays large. *)
            alloc_n (freed * 5 / 6)
          done;
          let st = Kma.Kmem.stats kmem in
          let si = 4 in
          final :=
            ( Kma.Kmem.granted_pages_oracle kmem,
              (Kma.Kstats.size st si).Kma.Kstats.pages_returned,
              List.length !live ));
      |];
    !final
  in
  let run env =
    section "Ablation: coalesce-to-page selection policy";
    let row name (pages, returned, live) =
      [ name; string_of_int live; string_of_int pages; string_of_int returned ]
    in
    Experiments.Series.table
      ~header:[ "policy"; "live blocks"; "pages held"; "pages recycled" ]
      (List.map2 row
         [ "fullest-first (paper)"; "emptiest-first" ]
         (Parallel.map ~jobs:env.jobs churn
            [ Kma.Params.Fullest_first; Kma.Params.Emptiest_first ]));
    print_endline
      "expected: same live data, but fullest-first holds it in fewer pages \
       and recycles more"
  in
  experiment "ablation-pagepolicy" ~fans_out:true
    ~doc:"Ablation B: radix page order vs emptiest-first." (Term.const run)

let roads_not_taken =
  let run env =
    section
      "Roads not taken: Lee-Barkley lazy buddy (global lock, per-op \
       shared-state traffic)";
    let open Baseline.Allocator in
    Experiments.Fig7.print_linear
      (Experiments.Fig7.run ~jobs:env.jobs
         ~whichs:[ Cookie; Newkma; Lazybuddy ]
         ~cpus:[ 1; 2; 4; 8 ] ~iters:400 ());
    print_endline
      "the lazy buddy is fast on one CPU (lazy frees skip the bitmap) but, \
       as the paper argues, its global synchronization keeps it from \
       scaling";
    (* It does coalesce, though: the worst-case sweep completes. *)
    Printf.printf "lazy buddy completes the worst-case sweep: %b\n"
      (Experiments.Fig9.completed
         (Experiments.Fig9.run ~which:Lazybuddy ~memory_words:(256 * 1024) ()))
  in
  experiment "roads-not-taken" ~fans_out:true
    ~doc:"The watermark lazy buddy the paper argues against." (Term.const run)

let bechamel =
  let run _env =
    section "Native OCaml 5 pool (Bechamel, ns/op, single domain)";
    let open Bechamel in
    let pooled =
      Objpool.Pool.create ~ctor:(fun () -> Bytes.create 4096) ~target:16 ()
    in
    let locked =
      Objpool.Locked_pool.create ~ctor:(fun () -> Bytes.create 4096) ()
    in
    (* Warm both so steady state is measured. *)
    Objpool.Pool.release pooled (Objpool.Pool.alloc pooled);
    Objpool.Locked_pool.release locked (Objpool.Locked_pool.alloc locked);
    let tests =
      Test.make_grouped ~name:"pool"
        [
          Test.make ~name:"per-domain magazine pair"
            (Staged.stage (fun () ->
                 Objpool.Pool.release pooled (Objpool.Pool.alloc pooled)));
          Test.make ~name:"global locked pool pair"
            (Staged.stage (fun () ->
                 Objpool.Locked_pool.release locked
                   (Objpool.Locked_pool.alloc locked)));
          Test.make ~name:"fresh Bytes.create 4096"
            (Staged.stage (fun () ->
                 ignore (Sys.opaque_identity (Bytes.create 4096))));
        ]
    in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
    let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    let rows =
      Hashtbl.fold
        (fun name o acc ->
          let est =
            match Analyze.OLS.estimates o with
            | Some [ e ] -> Printf.sprintf "%.1f" e
            | Some _ | None -> "-"
          in
          let r2 =
            match Analyze.OLS.r_square o with
            | Some r -> Printf.sprintf "%.4f" r
            | None -> "-"
          in
          [ name; est; r2 ] :: acc)
        results []
    in
    Experiments.Series.table
      ~header:[ "benchmark"; "ns/op"; "r^2" ]
      (List.sort compare rows)
  in
  experiment "bechamel" ~doc:"Native pool microbenchmarks (Bechamel)."
    (Term.const run)

let pool_domains =
  let run _env =
    section "Native pool vs locked pool under domain contention";
    let ndomains = max 2 (min 4 (Domain.recommended_domain_count ())) in
    let ops = 100_000 in
    (* Seconds for [ndomains] domains to each run [ops] pairs. *)
    let timed worker =
      let t0 = now_s () in
      let ds = List.init (ndomains - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join ds;
      now_s () -. t0
    in
    let tp =
      let p =
        Objpool.Pool.create ~ctor:(fun () -> Bytes.create 512) ~target:32 ()
      in
      timed (fun () ->
          for _ = 1 to ops do
            Objpool.Pool.release p (Objpool.Pool.alloc p)
          done;
          Objpool.Pool.flush_local p)
    in
    let tl =
      let p =
        Objpool.Locked_pool.create ~ctor:(fun () -> Bytes.create 512) ()
      in
      timed (fun () ->
          for _ = 1 to ops do
            Objpool.Locked_pool.release p (Objpool.Locked_pool.alloc p)
          done)
    in
    let rate t = float_of_int (ndomains * ops) /. t /. 1e6 in
    Experiments.Series.table
      ~header:[ "pool"; "domains"; "M ops/s" ]
      [
        [ "per-domain magazines"; string_of_int ndomains;
          Experiments.Series.f1 (rate tp) ];
        [ "single mutex"; string_of_int ndomains;
          Experiments.Series.f1 (rate tl) ];
      ];
    if Domain.recommended_domain_count () < 2 then
      print_endline
        "note: this host has one core, so contention effects are muted (the \
         simulated-machine figures above are the scaling result)"
  in
  experiment "pool-domains" ~doc:"Native pool vs locked pool across domains."
    (Term.const run)

let scenarios =
  let run env =
    section "Scenario library (trace replays on the new allocator)";
    let rows = Experiments.Scenarios.run ~jobs:env.jobs ~now:now_s () in
    Experiments.Scenarios.print rows;
    (* Pathology analysis replays under the one installed flight
       recorder, so it runs serially; it is the bench-level proof that
       each scenario's target detector fires. *)
    print_newline ();
    Experiments.Scenarios.print_highlights ();
    {
      quiet with
      scenarios =
        List.map
          (fun (r : Experiments.Scenarios.row) -> (r.name, r.wall_s))
          rows;
    }
  in
  experiment' "scenarios" ~fans_out:true
    ~doc:"Replay every library scenario; host seconds go to the ledger."
    (Term.const run)

let service_matrix =
  let run _env =
    section "Serving traffic through the native pool (E15: fixed vs adaptive)";
    let serve (label, scenario, domains, requests, refill, mode) =
      let o =
        Service.run
          {
            (Service.default ~scenario) with
            Service.domains;
            requests;
            mode;
            refill;
          }
      in
      print_string (Service.to_string o);
      print_newline ();
      (label, o)
    in
    let arms =
      List.map serve
        [
          (* A steady closed loop, plus the SpeedMalloc dedicated
             refill domain on the same load (prefills > 0 proves the
             stocker ran). *)
          ("steady/fixed", "steady", 2, 125_000, false, `Fixed);
          ("steady/fixed+refill", "steady", 2, 125_000, true, `Fixed);
          (* The E15 headline: cross-domain producer/consumer flow,
             where every object is freed on a different domain than its
             alloc. *)
          ( "producer_consumer/fixed", "producer_consumer", 4, 150_000, false,
            `Fixed );
          ( "producer_consumer/adaptive", "producer_consumer", 4, 150_000,
            false, `Adaptive );
        ]
    in
    let fx = List.assoc "producer_consumer/fixed" arms
    and ad = List.assoc "producer_consumer/adaptive" arms in
    let st m = m.Service.o_stats in
    Printf.printf
      "fixed vs adaptive (producer_consumer): ops/s %.2e -> %.2e, creates %d \
       -> %d, depot acquires %d -> %d, contended %d -> %d, drops %d -> %d\n"
      fx.Service.o_ops_per_sec ad.Service.o_ops_per_sec
      (st fx).Service.Pstats.s_creates (st ad).Service.Pstats.s_creates
      (st fx).Service.Pstats.s_depot_acquires
      (st ad).Service.Pstats.s_depot_acquires
      (st fx).Service.Pstats.s_depot_contended
      (st ad).Service.Pstats.s_depot_contended (st fx).Service.Pstats.s_drops
      (st ad).Service.Pstats.s_drops;
    { quiet with service = arms }
  in
  experiment' "service-matrix"
    ~doc:"The E15 service arms; their outcomes go to the ledger."
    (Term.const run)

let fuzz_matrix =
  let run env =
    section "Differential fuzz vs reference model (heap invariants)";
    let open Heapcheck.Fuzz in
    let matrix =
      [
        ("paranoid", config ~ops:1500 ~seed:21 ());
        ( "pressure + faults",
          config ~ops:1500 ~seed:22 ~pressure:true ~fault_rate:0.3 () );
        ( "debug kernel, sweep",
          config ~ops:1500 ~seed:23 ~debug:true ~check_every:32 () );
      ]
    in
    let outcomes = run_matrix ~jobs:env.jobs (List.map snd matrix) in
    List.iter2
      (fun (name, _) o ->
        Printf.printf "%-28s %5d checks  %5d allocs  %5d frees  %s\n" name
          o.checks o.allocs o.frees
          (match o.failure with
          | None -> "ok"
          | Some f -> Printf.sprintf "FAILED at op %d" f.index))
      matrix outcomes;
    if List.exists (fun o -> o.failure <> None) outcomes then
      raise (Check_failed "fuzz: a consistency check failed")
  in
  experiment "fuzz-matrix" ~fans_out:true
    ~doc:"Three fuzz configurations under the heap checker." (Term.const run)

let commands =
  [
    fig7; fig8; fig9; opcounts; analysis; missrates; geometry; numa; lockfree;
    pressure; fuzz; cyclic; crosscpu; trace; scenario; service;
  ]

let table =
  commands
  @ [
      ablation_target; ablation_pagepolicy; roads_not_taken; bechamel;
      pool_domains; scenarios; service_matrix; fuzz_matrix;
    ]

let cmd f t = Cmd.v t.info (Term.map f t.term)
