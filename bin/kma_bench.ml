(* Experiment driver: one subcommand per paper artifact.  See DESIGN.md
   for the experiment index and EXPERIMENTS.md for recorded results. *)

open Cmdliner

(* Validated argument converters: an out-of-range CPU count or fault
   rate becomes a clear usage error (non-zero exit) at parse time
   instead of an exception escaping from the simulator. *)
let cpus_range = (1, Sim.Config.max_cpus) (* Sim.Config's accepted range *)

let check_cpus n =
  let lo, hi = cpus_range in
  if n >= lo && n <= hi then Ok n
  else
    Error
      (`Msg (Printf.sprintf "CPU count %d out of range [%d, %d]" n lo hi))

let cpus_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n -> check_cpus n
    | None -> Error (`Msg (Printf.sprintf "invalid CPU count %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let cpu_list_conv =
  let parse s =
    let rec all = function
      | [] -> Ok ()
      | Error e :: _ -> Error e
      | Ok _ :: rest -> all rest
    in
    let parts = String.split_on_char ',' s in
    let checked =
      List.map
        (fun p ->
          match int_of_string_opt (String.trim p) with
          | Some n -> check_cpus n
          | None -> Error (`Msg (Printf.sprintf "invalid CPU count %S" p)))
        parts
    in
    match all checked with
    | Error e -> Error e
    | Ok () -> Ok (List.map (function Ok n -> n | Error _ -> assert false) checked)
  in
  let print ppf l =
    Format.pp_print_string ppf (String.concat "," (List.map string_of_int l))
  in
  Arg.conv (parse, print)

let check_rate r =
  if r >= 0. && r <= 1. then Ok r
  else Error (`Msg (Printf.sprintf "fault rate %g out of range [0, 1]" r))

let rate_list_conv =
  let parse s =
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match float_of_string_opt (String.trim p) with
          | Some r -> (
              match check_rate r with
              | Ok r -> go (r :: acc) rest
              | Error e -> Error e)
          | None -> Error (`Msg (Printf.sprintf "invalid fault rate %S" p)))
    in
    go [] parts
  in
  let print ppf l =
    Format.pp_print_string ppf
      (String.concat "," (List.map (Printf.sprintf "%g") l))
  in
  Arg.conv (parse, print)

(* Shared --jobs plumbing: sweeps of independent cells fan out over
   the lib/parallel domain pool.  Validated like the other converters:
   a zero or negative job count is a usage error at parse time. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n ->
        Error (`Msg (Printf.sprintf "job count %d out of range (want >= 1)" n))
    | None -> Error (`Msg (Printf.sprintf "invalid job count %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_flag =
  Arg.(
    value
    & opt jobs_conv (Parallel.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Fan the sweep's independent cells out over $(docv) domains \
           (default: the host's recommended domain count).  Results are \
           bit-identical at any job count.")

(* Shared --geometry plumbing: the flag overrides whatever the
   KMA_GEOMETRY environment variable installed at startup.  Parse
   errors are usage errors at the cmdliner layer (non-zero exit before
   any simulation runs). *)
let geometry_conv =
  let parse s =
    match Sim.Geometry.of_string s with
    | Ok g -> Ok g
    | Error msg -> Error (`Msg msg)
  in
  let print ppf g = Format.pp_print_string ppf (Sim.Geometry.to_string g) in
  Arg.conv (parse, print)

let geometry_flag =
  Arg.(
    value
    & opt (some geometry_conv) None
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

let with_geometry g f =
  (match g with Some g -> Sim.Geometry.set_ambient g | None -> ());
  f ()

(* Allocator names are user input on several subcommands; an unknown
   name must fail usage-style with the full roster, so a typo never
   silently falls back to a default arm. *)
let alloc_conv =
  let parse s =
    match Baseline.Allocator.of_name s with
    | Some w -> Ok w
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown allocator %s (valid: %s)" s
               Baseline.Allocator.roster_string))
  in
  let print ppf w =
    Format.pp_print_string ppf (Baseline.Allocator.name_of w)
  in
  Arg.conv (parse, print)

let allocs_flag ~default =
  Arg.(
    value
    & opt (list alloc_conv) default
    & info [ "allocs" ] ~docv:"NAME,NAME,..."
        ~doc:
          (Printf.sprintf "Allocator arms to sweep (any of: %s)."
             Baseline.Allocator.roster_string))

let fig7_cmd =
  let cpus =
    Arg.(
      value
      & opt cpu_list_conv Experiments.Fig7.default_cpus
      & info [ "cpus" ] ~docv:"N,N,..." ~doc:"CPU counts to sweep.")
  in
  let iters =
    Arg.(
      value & opt int 2000
      & info [ "iters" ] ~doc:"Timed alloc/free pairs per CPU.")
  in
  let bytes =
    Arg.(value & opt int 256 & info [ "bytes" ] ~doc:"Block size.")
  in
  let semilog =
    Arg.(
      value & flag
      & info [ "semilog" ] ~doc:"Print the Figure 8 (log10) view too.")
  in
  let gnuplot =
    Arg.(
      value & opt (some string) None
      & info [ "gnuplot" ] ~docv:"PREFIX"
          ~doc:"Write PREFIX.dat and PREFIX.gp for rendering with gnuplot.")
  in
  let whichs = allocs_flag ~default:Baseline.Allocator.all in
  let run geometry whichs cpus iters bytes semilog gnuplot jobs =
    with_geometry geometry @@ fun () ->
    let points = Experiments.Fig7.run ~jobs ~whichs ~cpus ~iters ~bytes () in
    Experiments.Fig7.print_linear points;
    if semilog then Experiments.Fig7.print_semilog points;
    (match gnuplot with
    | Some prefix ->
        Experiments.Plot.write_fig7 points ~prefix;
        Experiments.Plot.write_fig8 points ~prefix:(prefix ^ "-semilog");
        Printf.printf "wrote %s.{dat,gp} and %s-semilog.{dat,gp}\n" prefix
          prefix
    | None -> ());
    if
      List.mem Baseline.Allocator.Cookie whichs
      && List.mem Baseline.Allocator.Oldkma whichs
    then
      Printf.printf "\nsingle-CPU cookie/oldkma ratio: %.1fx\n"
        (Experiments.Fig7.single_cpu_ratio points
           ~num:Baseline.Allocator.Cookie ~den:Baseline.Allocator.Oldkma)
  in
  Cmd.v
    (Cmd.info "fig7"
       ~doc:
         "Best-case pairs/s vs CPUs (Figure 7); $(b,--allocs) swaps in \
          any arm from the laboratory roster.")
    Term.(
      const run $ geometry_flag $ whichs $ cpus $ iters $ bytes $ semilog
      $ gnuplot $ jobs_flag)

let fig8_cmd =
  let cpus =
    Arg.(
      value
      & opt cpu_list_conv Experiments.Fig7.default_cpus
      & info [ "cpus" ] ~docv:"N,N,..." ~doc:"CPU counts to sweep.")
  in
  let iters = Arg.(value & opt int 2000 & info [ "iters" ] ~doc:"Pairs/CPU.") in
  let whichs = allocs_flag ~default:Baseline.Allocator.all in
  let run whichs cpus iters jobs =
    let points = Experiments.Fig7.run ~jobs ~whichs ~cpus ~iters () in
    Experiments.Fig7.print_semilog points
  in
  Cmd.v
    (Cmd.info "fig8" ~doc:"Same data as fig7 on a semilog scale (Figure 8).")
    Term.(const run $ whichs $ cpus $ iters $ jobs_flag)

let fig9_cmd =
  let alloc =
    Arg.(
      value
      & opt alloc_conv Baseline.Allocator.Newkma
      & info [ "allocator" ] ~doc:"Allocator to sweep.")
  in
  let memory =
    Arg.(
      value & opt int (1024 * 1024)
      & info [ "memory-words" ] ~doc:"Simulated memory size in words.")
  in
  let cap =
    Arg.(
      value & opt int 0
      & info [ "cap" ] ~doc:"Max blocks per size (0 = until exhaustion).")
  in
  let gnuplot =
    Arg.(
      value & opt (some string) None
      & info [ "gnuplot" ] ~docv:"PREFIX"
          ~doc:"Write PREFIX.dat and PREFIX.gp for rendering with gnuplot.")
  in
  let run w memory cap gnuplot =
    let results = Experiments.Fig9.run ~which:w ~memory_words:memory ~cap () in
    Experiments.Fig9.print results;
    (match gnuplot with
    | Some prefix ->
        Experiments.Plot.write_fig9 results ~prefix;
        Printf.printf "wrote %s.dat and %s.gp\n" prefix prefix
    | None -> ());
    if not (Experiments.Fig9.completed results) then
      print_endline
        "NOTE: the sweep wedged (an allocator without coalescing cannot \
         complete this benchmark)"
  in
  Cmd.v
    (Cmd.info "fig9" ~doc:"Worst-case pairs/s vs block size (Figure 9).")
    Term.(const run $ alloc $ memory $ cap $ gnuplot)

let opcounts_cmd =
  let run jobs = Experiments.Opcounts.print (Experiments.Opcounts.run ~jobs ()) in
  Cmd.v
    (Cmd.info "opcounts" ~doc:"Warm fast-path instruction counts (E2).")
    Term.(const run $ jobs_flag)

(* Shared --lockcheck plumbing: enable the synchronization validator
   around a workload run and print its report afterwards.  The checker
   is host-side (like the flight recorder), so simulated cycle counts
   are unchanged; a violation aborts the run with the diagnosis. *)
let lockcheck_flag =
  Arg.(
    value & flag
    & info [ "lockcheck" ]
        ~doc:
          "Validate the synchronization discipline during the run \
           (lock-order graph / ABBA detection, per-CPU interrupt \
           discipline, locks held across VM calls) and print the \
           lockcheck report. Zero simulated-cycle overhead; a violation \
           aborts with both acquisition backtraces.")

let with_lockcheck ~enabled f =
  if not enabled then f ()
  else begin
    Lockcheck.enable ();
    Fun.protect
      ~finally:(fun () -> Lockcheck.disable ())
      (fun () ->
        let r = f () in
        print_newline ();
        print_string (Lockcheck.report ());
        r)
  end

(* Shared --heapcheck plumbing: arm the heap-consistency checker around
   a workload run; checkpoints fire at the experiments' quiescent
   points.  Like lockcheck, the checker is host-side (uncharged reads
   only), so simulated cycle counts are unchanged.  Any recorded
   violation makes the driver exit non-zero. *)
let heapcheck_mode_conv =
  let parse = function
    | "paranoid" -> Ok Heapcheck.Paranoid
    | "sweep" -> Ok (Heapcheck.Sweep 64)
    | s ->
        Error
          (`Msg
             (Printf.sprintf "unknown heapcheck mode %S (paranoid or sweep)" s))
  in
  let print ppf = function
    | Heapcheck.Paranoid -> Format.pp_print_string ppf "paranoid"
    | Heapcheck.Sweep _ -> Format.pp_print_string ppf "sweep"
  in
  Arg.conv (parse, print)

let heapcheck_flag =
  Arg.(
    value
    & opt ~vopt:(Some Heapcheck.Paranoid) (some heapcheck_mode_conv) None
    & info [ "heapcheck" ] ~docv:"MODE"
        ~doc:
          "Check heap consistency (freelist count words, page-descriptor \
           states, pagepool hints, block conservation, duplicate blocks) \
           at the run's quiescent points and print the heapcheck report. \
           MODE is $(b,paranoid) (default) or $(b,sweep). Zero \
           simulated-cycle overhead; any violation makes the exit status \
           non-zero.")

let with_heapcheck ~mode f =
  match mode with
  | None -> f ()
  | Some mode ->
      Heapcheck.enable ~abort:false ~mode ();
      Fun.protect
        ~finally:(fun () -> Heapcheck.disable ())
        (fun () ->
          let r = f () in
          print_newline ();
          print_string (Heapcheck.report ());
          if Heapcheck.violation_count () > 0 then exit 3;
          r)

let analysis_cmd =
  let samples =
    Arg.(value & opt int 200 & info [ "samples" ] ~doc:"Operations to trace.")
  in
  let run samples lockcheck =
    with_lockcheck ~enabled:lockcheck (fun () ->
        Experiments.Analysis.print (Experiments.Analysis.run ~samples ()))
  in
  Cmd.v
    (Cmd.info "analysis"
       ~doc:
         "allocb/freeb access-cost profile on the old allocator (E1); \
          $(b,--lockcheck) validates the synchronization discipline (E9).")
    Term.(const run $ samples $ lockcheck_flag)

(* Shared --flight-recorder plumbing: install a recorder around a
   workload run and print the report afterwards.  Recording is
   host-side, so the run's simulated cycle counts are unchanged. *)
let flightrec_flag =
  Arg.(
    value & flag
    & info [ "flight-recorder" ]
        ~doc:
          "Record a per-CPU event trace (allocator layers, spinlocks, VM \
           system) and print the flight-recorder report after the run. \
           Zero simulated-cycle overhead.")

let with_flightrec ~enabled ~ncpus f =
  if not enabled then f ()
  else begin
    let fr = Flightrec.Recorder.create ~ncpus () in
    Flightrec.Recorder.install fr;
    Fun.protect
      ~finally:(fun () -> Flightrec.Recorder.uninstall ())
      (fun () ->
        let r = f () in
        print_newline ();
        print_string (Flightrec.Report.to_string fr);
        r)
  end

let missrates_cmd =
  let ncpus = Arg.(value & opt cpus_conv 4 & info [ "cpus" ] ~doc:"CPUs.") in
  let txs =
    Arg.(
      value & opt int 3000
      & info [ "transactions" ] ~doc:"Transactions per CPU.")
  in
  let run geometry ncpus txs flightrec lockcheck heapcheck =
    with_geometry geometry @@ fun () ->
    with_heapcheck ~mode:heapcheck (fun () ->
        with_lockcheck ~enabled:lockcheck (fun () ->
            with_flightrec ~enabled:flightrec ~ncpus (fun () ->
                let r =
                  Experiments.Missrates.run ~ncpus ~transactions_per_cpu:txs ()
                in
                Experiments.Missrates.print r;
                if not (Experiments.Missrates.within_bounds r) then
                  print_endline
                    "WARNING: a measured rate exceeded its analytic bound")))
  in
  Cmd.v
    (Cmd.info "missrates"
       ~doc:
         "Per-layer miss rates under the DLM/OLTP workload (E6); \
          $(b,--flight-recorder) adds the time-resolved trace report; \
          $(b,--lockcheck) validates the synchronization discipline; \
          $(b,--heapcheck) verifies heap consistency after the run.")
    Term.(
      const run $ geometry_flag $ ncpus $ txs $ flightrec_flag
      $ lockcheck_flag $ heapcheck_flag)

let pressure_cmd =
  let ncpus = Arg.(value & opt cpus_conv 4 & info [ "cpus" ] ~doc:"CPUs.") in
  let rounds =
    Arg.(
      value & opt int 30
      & info [ "rounds" ] ~doc:"Alloc/free rounds per CPU.")
  in
  let batch =
    Arg.(value & opt int 120 & info [ "batch" ] ~doc:"Blocks per round.")
  in
  let rates =
    Arg.(
      value
      & opt rate_list_conv Experiments.Pressure.default_rates
      & info [ "rates" ] ~docv:"R,R,..."
          ~doc:"Grant-denial rates to sweep, each in [0, 1].")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Fault-injection seed.")
  in
  let run ncpus rounds batch rates seed flightrec lockcheck heapcheck jobs =
    (* The flight recorder and lockcheck keep host-global state, so
       their cells cannot fan out; heapcheck shards (domain-local state,
       deterministic merge) and composes with any job count. *)
    let jobs =
      if (flightrec || lockcheck) && jobs > 1 then begin
        prerr_endline
          "kma_bench: note: --flight-recorder/--lockcheck keep host-global \
           state; forcing --jobs 1 (heapcheck shards and is unaffected)";
        1
      end
      else jobs
    in
    with_heapcheck ~mode:heapcheck (fun () ->
    with_lockcheck ~enabled:lockcheck (fun () ->
    with_flightrec ~enabled:flightrec ~ncpus (fun () ->
        let r =
          Experiments.Pressure.run ~jobs ~ncpus ~rounds ~batch ~rates ~seed ()
        in
        Experiments.Pressure.print r;
        let has x = List.exists (Float.equal x) rates in
        if has 0.0 && has 0.2 then begin
          print_newline ();
          if Experiments.Pressure.graceful r then
            print_endline
              "shape: graceful degradation at 20% denials (>= 50% \
               throughput, zero failures, reap returns pages) while mk \
               fails or hoards"
          else
            print_endline
              "WARNING: the E8 graceful-degradation shape did not hold"
        end)))
  in
  Cmd.v
    (Cmd.info "pressure"
       ~doc:
         "Memory pressure: throughput and pages held vs VM grant-denial \
          rate, cookie/newkma (reap + adaptive targets) vs mk (E8); \
          $(b,--lockcheck) validates the synchronization discipline; \
          $(b,--heapcheck) verifies heap consistency after each cell.")
    Term.(
      const run $ ncpus $ rounds $ batch $ rates $ seed $ flightrec_flag
      $ lockcheck_flag $ heapcheck_flag $ jobs_flag)

let fuzz_cmd =
  let ops =
    Arg.(value & opt int 10_000 & info [ "ops" ] ~doc:"Trace length.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Trace seed.") in
  let mode =
    Arg.(
      value
      & opt heapcheck_mode_conv Heapcheck.Paranoid
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Consistency-check cadence: $(b,paranoid) checks after every \
             op, $(b,sweep) every 64 ops.")
  in
  let pressure =
    Arg.(
      value & flag
      & info [ "pressure" ]
          ~doc:"Enable the memory-pressure subsystem (adaptive targets).")
  in
  let debug =
    Arg.(
      value & flag
      & info [ "debug" ] ~doc:"Debug kernel (poisoned frees).")
  in
  let fault_rate =
    let rate_conv =
      let parse s =
        match float_of_string_opt s with
        | Some r -> check_rate r
        | None -> Error (`Msg (Printf.sprintf "invalid fault rate %S" s))
      in
      Arg.conv (parse, fun ppf r -> Format.fprintf ppf "%g" r)
    in
    Arg.(
      value & opt rate_conv 0.
      & info [ "fault-rate" ]
          ~doc:
            "VM grant-denial rate armed by the trace's fault-injection \
             ops (0 removes those ops from the mix).")
  in
  let run ops seed mode pressure debug fault_rate =
    let check_every =
      match mode with Heapcheck.Paranoid -> 1 | Heapcheck.Sweep n -> n
    in
    let cfg =
      Heapcheck.Fuzz.config ~ops ~check_every ~pressure ~debug ~fault_rate
        ~seed ()
    in
    let o = Heapcheck.Fuzz.run cfg in
    Printf.printf
      "fuzz: seed %d, %d ops (%d allocs, %d frees), %d checks, %d cycles\n"
      seed ops o.Heapcheck.Fuzz.allocs o.Heapcheck.Fuzz.frees
      o.Heapcheck.Fuzz.checks o.Heapcheck.Fuzz.cycles;
    match o.Heapcheck.Fuzz.failure with
    | None -> print_endline "all consistency checks passed"
    | Some f ->
        Printf.printf "FAILED after op %d (%s):\n" f.Heapcheck.Fuzz.index
          (Format.asprintf "%a" Heapcheck.Fuzz.pp_op f.Heapcheck.Fuzz.op);
        List.iter
          (fun p -> print_endline ("  " ^ p))
          f.Heapcheck.Fuzz.problems;
        let minimized = Heapcheck.Fuzz.minimize cfg (Heapcheck.Fuzz.gen cfg) in
        Format.printf "minimized reproducer (%d ops):@.%a@."
          (List.length minimized) Heapcheck.Fuzz.pp_trace minimized;
        exit 3
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzz of the new allocator against a reference model \
          with full heap-consistency checking; prints a minimized \
          reproducer and exits non-zero on any violation.")
    Term.(const run $ ops $ seed $ mode $ pressure $ debug $ fault_rate)

let cyclic_cmd =
  let days = Arg.(value & opt int 3 & info [ "days" ] ~doc:"Day/night cycles.") in
  let run days =
    let r = Workload.Cyclic.run_kmem ~days () in
    Experiments.Series.heading "Cyclic day/night workload (new allocator)";
    Printf.printf
      "day allocs: %d\nnight large allocs: %d (failures: %d)\n\
       pages held after day: %d\npages held at night: %d\n"
      r.Workload.Cyclic.day_allocs r.Workload.Cyclic.night_allocs
      r.Workload.Cyclic.night_failures r.Workload.Cyclic.day_peak_pages
      r.Workload.Cyclic.night_pages
  in
  Cmd.v
    (Cmd.info "cyclic"
       ~doc:"Day/night workload: coalescing reuses day memory at night.")
    Term.(const run $ days)

let crosscpu_cmd =
  let pairs =
    Arg.(value & opt int 2 & info [ "pairs" ] ~doc:"Producer/consumer pairs.")
  in
  let blocks =
    Arg.(
      value & opt int 2000
      & info [ "blocks" ] ~doc:"Blocks transferred per pair.")
  in
  let run pairs blocks jobs =
    Experiments.Series.heading
      "Producer/consumer flow through the global layer";
    let rows =
      Parallel.map ~jobs
        (fun which ->
          let r =
            Workload.Crosscpu.run ~which ~pairs ~blocks_per_pair:blocks ()
          in
          [
            Baseline.Allocator.name_of which;
            Experiments.Series.sci r.Workload.Crosscpu.transfers_per_sec;
          ])
        (Baseline.Allocator.all @ [ Baseline.Allocator.Lazybuddy ])
    in
    Experiments.Series.table ~header:[ "allocator"; "transfers/s" ] rows
  in
  Cmd.v
    (Cmd.info "crosscpu"
       ~doc:"Cross-CPU producer/consumer throughput (the global layer's job).")
    Term.(const run $ pairs $ blocks $ jobs_flag)

let trace_cmd =
  let ops =
    Arg.(value & opt int 3000 & info [ "ops" ] ~doc:"Trace length (events).")
  in
  let seed = Arg.(value & opt int 13 & info [ "seed" ] ~doc:"Trace seed.") in
  let run ops seed =
    let t = Workload.Trace.synthesize ~ops ~seed () in
    (match Workload.Trace.validate t with
    | Ok () -> ()
    | Error e -> failwith ("synthesized trace invalid: " ^ e));
    Experiments.Series.heading
      (Printf.sprintf "Trace replay: %d events, seed %d, one CPU"
         (List.length t) seed);
    let rows =
      List.map
        (fun which ->
          let m =
            Sim.Machine.create (Workload.Rig.paper_config ~ncpus:1 ())
          in
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
        (Baseline.Allocator.all @ [ Baseline.Allocator.Lazybuddy ])
    in
    Experiments.Series.table
      ~header:[ "allocator"; "failures"; "skipped"; "ops/s" ]
      rows
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Synthesize an allocation trace and replay it bit-for-bit on every \
          allocator.")
    Term.(const run $ ops $ seed)

let scenario_cmd =
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
      value & opt float 1.
      & info [ "scale" ] ~docv:"K"
          ~doc:"Rate scaling: divide recorded inter-arrival gaps by $(docv).")
  in
  let cpus =
    Arg.(
      value
      & opt (some cpus_conv) None
      & info [ "cpus" ] ~docv:"N"
          ~doc:
            "Fan the trace out to $(docv) CPUs (must be a multiple of the \
             scenario's own CPU count; ids are remapped deterministically).")
  in
  let windows =
    Arg.(
      value & opt int 16
      & info [ "windows" ]
          ~doc:"Analysis windows (fragmentation samples) for --report.")
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
    Experiments.Series.heading "Scenario library";
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
  let whichs = allocs_flag ~default:[ Baseline.Allocator.Newkma ] in
  let run name seed scale cpus windows report whichs heapcheck =
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
              if scale = 1. then t else Workload.Trace.scale_rate ~factor:scale t
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
              (* With the default single-arm roster the label is the
                 bare scenario name, keeping the output byte-identical
                 to the pre---allocs driver. *)
              let label =
                if which = Baseline.Allocator.Newkma then n
                else
                  Printf.sprintf "%s[%s]" n
                    (Baseline.Allocator.name_of which)
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
                    (match probe.Baseline.Allocator.stats with
                    | Some st ->
                        Printf.printf "  probe: %s\n"
                          (Lockfree.Stats.to_string st)
                    | None -> ())
              end
            in
            with_heapcheck ~mode:heapcheck (fun () -> List.iter one whichs))
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Replay a library scenario (production-shaped multi-CPU trace), \
          optionally scaled with $(b,--scale) / $(b,--cpus); \
          $(b,--report) prints the pathology analysis with flight-recorder \
          evidence; $(b,--allocs) replays the same trace on other roster \
          arms (e.g. the lock-free pair) under the same detectors.")
    Term.(
      const run $ name_arg $ seed $ scale $ cpus $ windows $ report $ whichs
      $ heapcheck_flag)

let lockfree_cmd =
  let cpus =
    Arg.(
      value
      & opt cpu_list_conv Experiments.Lockfree_arms.default_cpus
      & info [ "cpus" ] ~docv:"N,N,..." ~doc:"CPU counts to sweep.")
  in
  let iters =
    Arg.(
      value & opt int 2000
      & info [ "iters" ] ~doc:"Timed alloc/free pairs per CPU.")
  in
  let bytes =
    Arg.(value & opt int 256 & info [ "bytes" ] ~doc:"Block size.")
  in
  let whichs =
    allocs_flag ~default:Experiments.Lockfree_arms.default_whichs
  in
  let pairs =
    Arg.(
      value
      & opt cpu_list_conv Experiments.Lockfree_arms.default_pairs
      & info [ "pairs" ]
          ~docv:"N,N,..."
          ~doc:
            "Producer/consumer pair counts for the remote-free companion \
             sweep (each pair is 2 CPUs).")
  in
  let blocks =
    Arg.(
      value & opt int 400
      & info [ "blocks" ] ~doc:"Blocks transferred per pair (remote sweep).")
  in
  let run geometry whichs cpus iters bytes pairs blocks jobs =
    with_geometry geometry @@ fun () ->
    match Experiments.Lockfree_arms.run ~jobs ~whichs ~cpus ~iters ~bytes () with
    | points -> (
        Experiments.Lockfree_arms.print_throughput points;
        Experiments.Lockfree_arms.print_retries points;
        let remote =
          Experiments.Lockfree_arms.run_crosscpu ~jobs ~whichs ~pairs
            ~blocks_per_pair:blocks ~bytes ()
        in
        Experiments.Lockfree_arms.print_crosscpu remote;
        let storm =
          Experiments.Lockfree_arms.run_storm ~jobs
            ~whichs:
              (List.filter
                 (fun w -> List.mem w Baseline.Allocator.lockfree)
                 whichs)
            ~cpus ()
        in
        Experiments.Lockfree_arms.print_storm storm)
    | exception Experiments.Lockfree_arms.Conservation msg ->
        Printf.eprintf "kma_bench lockfree: conservation violated: %s\n" msg;
        exit 3
  in
  Cmd.v
    (Cmd.info "lockfree"
       ~doc:
         "Lock-based vs lock-free head-to-head (E13): the Figure 7 \
          methodology over the non-blocking arms, with CAS-retry and \
          helping counters and a conservation check per cell.")
    Term.(
      const run $ geometry_flag $ whichs $ cpus $ iters $ bytes $ pairs
      $ blocks $ jobs_flag)

let numa_cmd =
  let node_list_conv =
    let parse s =
      let parts = String.split_on_char ',' s in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> (
            match int_of_string_opt (String.trim p) with
            | Some n when n >= 1 -> go (n :: acc) rest
            | Some n ->
                Error
                  (`Msg (Printf.sprintf "node count %d out of range (>= 1)" n))
            | None -> Error (`Msg (Printf.sprintf "invalid node count %S" p)))
      in
      go [] parts
    in
    let print ppf l =
      Format.pp_print_string ppf (String.concat "," (List.map string_of_int l))
    in
    Arg.conv (parse, print)
  in
  let cpus =
    Arg.(
      value
      & opt cpu_list_conv Experiments.Numa.default_cpus
      & info [ "cpus" ] ~docv:"N,N,..." ~doc:"CPU counts to sweep.")
  in
  let nodes =
    Arg.(
      value
      & opt node_list_conv Experiments.Numa.default_nodes
      & info [ "nodes" ] ~docv:"N,N,..."
          ~doc:
            "NUMA node counts to sweep (1 = the flat baseline; node counts \
             exceeding a cell's CPU count are skipped).")
  in
  let iters =
    Arg.(
      value & opt int 12 & info [ "iters" ] ~doc:"Timed bursts per CPU.")
  in
  let depth =
    Arg.(
      value & opt int 64
      & info [ "depth" ] ~docv:"N"
          ~doc:
            "Burst size: blocks held live at once per CPU.  Keep it above \
             twice the per-CPU cache target or the global layer goes quiet \
             and the sweep measures nothing.")
  in
  let bytes =
    Arg.(value & opt int 256 & info [ "bytes" ] ~doc:"Block size.")
  in
  let whichs = allocs_flag ~default:Experiments.Numa.default_whichs in
  let run geometry whichs cpus nodes iters depth bytes jobs =
    with_geometry geometry @@ fun () ->
    Experiments.Numa.print ~depth
      (Experiments.Numa.run ~jobs ~whichs ~cpus ~nodes ~iters ~depth ~bytes ())
  in
  Cmd.v
    (Cmd.info "numa"
       ~doc:
         "NUMA scaling sweep (E14): global-layer churn at 128-512 CPUs \
          across 2-8 nodes, flat gblfree (newkma) vs per-node gblfree \
          (numakma).  $(b,--geometry) sets the base cost model (keys \
          nodes/node_miss/node_c2c price the cross-node surcharges); \
          $(b,--nodes) sweeps the machine's node count on top of it.")
    Term.(
      const run $ geometry_flag $ whichs $ cpus $ nodes $ iters $ depth
      $ bytes $ jobs_flag)

let geometry_cmd =
  let ncpus =
    Arg.(value & opt cpus_conv 8 & info [ "cpus" ] ~doc:"CPUs per cell.")
  in
  let iters =
    Arg.(
      value & opt int 50
      & info [ "iters" ] ~doc:"Timed bursts per CPU per cell.")
  in
  let depth =
    Arg.(
      value & opt int 96
      & info [ "depth" ] ~docv:"N"
          ~doc:
            "Burst size: blocks held live at once per CPU.  The default \
             overflows the smaller geometries, which is what makes the \
             line-size axis informative.")
  in
  let bytes =
    Arg.(value & opt int 256 & info [ "bytes" ] ~doc:"Block size.")
  in
  let run geometry ncpus iters depth bytes jobs =
    with_geometry geometry @@ fun () ->
    Experiments.Geomsweep.print ~ncpus ~depth
      (Experiments.Geomsweep.run ~jobs ~ncpus ~iters ~depth ~bytes ())
  in
  Cmd.v
    (Cmd.info "geometry"
       ~doc:
         "Cache-geometry sweep (E12): miss rate and cycles per \
          alloc/write/free pair vs line size and associativity, newkma vs \
          cookie.  $(b,--geometry) here sets the $(i,base) cost model the \
          sweep varies line size and associativity around.")
    Term.(
      const run $ geometry_flag $ ncpus $ iters $ depth $ bytes $ jobs_flag)

let service_cmd =
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            "Scenario shape to serve ($(b,list) or omit to list the shapes).")
  in
  let mode_conv =
    let parse = function
      | "fixed" -> Ok `Fixed
      | "adaptive" -> Ok `Adaptive
      | "both" -> Ok `Both
      | s ->
          Error
            (`Msg
              (Printf.sprintf "unknown mode %S (valid: fixed, adaptive, both)"
                 s))
    in
    let print ppf m =
      Format.pp_print_string ppf
        (match m with `Fixed -> "fixed" | `Adaptive -> "adaptive" | `Both -> "both")
    in
    Arg.conv (parse, print)
  in
  let arrival_conv =
    let parse s =
      if s = "closed" then Ok `Closed
      else
        match String.index_opt s ':' with
        | Some i when String.sub s 0 i = "open" -> (
            let rest = String.sub s (i + 1) (String.length s - i - 1) in
            match int_of_string_opt rest with
            | Some m when m >= 1 -> Ok (`Open_ns m)
            | _ ->
                Error
                  (`Msg
                    (Printf.sprintf
                       "bad open-loop mean %S (want open:<mean-ns>, >= 1)" rest)))
        | _ ->
            Error
              (`Msg
                (Printf.sprintf
                   "unknown arrival %S (valid: closed, open:<mean-ns>)" s))
    in
    let print ppf (a : Service.arrival) =
      Format.pp_print_string ppf
        (match a with
        | `Closed -> "closed"
        | `Open_ns m -> Printf.sprintf "open:%d" m)
    in
    Arg.conv (parse, print)
  in
  let pos_int what =
    let parse s =
      match int_of_string_opt s with
      | Some v when v >= 1 -> Ok v
      | _ -> Error (`Msg (Printf.sprintf "bad %s %S (want an int >= 1)" what s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let domains =
    Arg.(
      value
      & opt (pos_int "domain count") 2
      & info [ "domains" ] ~docv:"N" ~doc:"Worker domains (default 2).")
  in
  let requests =
    Arg.(
      value
      & opt (pos_int "request count") 100_000
      & info [ "requests" ] ~docv:"N"
          ~doc:"Requests served per domain (default 100000).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed.")
  in
  let mode =
    Arg.(
      value
      & opt mode_conv `Both
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Pool geometry: $(b,fixed), $(b,adaptive), or $(b,both) to A/B \
             them on the same load (default).")
  in
  let refill =
    Arg.(
      value & flag
      & info [ "refill" ]
          ~doc:
            "Add a dedicated depot-refill domain (SpeedMalloc's allocation \
             core): workers never pay constructor cost in steady state.")
  in
  let target =
    Arg.(
      value
      & opt (pos_int "target") 16
      & info [ "target" ] ~doc:"Base magazine target (batch size).")
  in
  let depot_batches =
    Arg.(
      value
      & opt (pos_int "depot bound") 32
      & info [ "depot-batches" ] ~doc:"Base depot bound, in batches.")
  in
  let arrival =
    Arg.(
      value
      & opt arrival_conv `Closed
      & info [ "arrival" ] ~docv:"KIND"
          ~doc:
            "Request arrival: $(b,closed) (back-to-back) or \
             $(b,open:<mean-ns>) (seeded inter-arrival, latency measured \
             from the scheduled arrival).")
  in
  let obj_bytes =
    Arg.(
      value
      & opt (pos_int "object size") 256
      & info [ "obj-bytes" ] ~doc:"Pooled object size in bytes.")
  in
  let list_shapes () =
    Experiments.Series.heading "Service shapes (lib/scenario request graphs)";
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
      obj_bytes =
    match name with
    | None | Some "list" -> list_shapes ()
    | Some n -> (
        match Service.shape_of_scenario n with
        | None ->
            Printf.eprintf "unknown scenario %S (try: %s)\n" n
              (String.concat ", " (Scenario.names ()));
            exit 2
        | Some _ ->
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
            (match mode with
            | `Fixed -> ignore (serve `Fixed)
            | `Adaptive -> ignore (serve `Adaptive)
            | `Both ->
                let f = serve `Fixed in
                print_newline ();
                let a = serve `Adaptive in
                let rate o =
                  if Float.is_nan o.Service.o_contention then 0.
                  else o.Service.o_contention
                in
                Printf.printf
                  "\nfixed vs adaptive: contended acquisitions %d -> %d \
                   (rate %.4f -> %.4f), p99 %.0f -> %.0f ns\n"
                  f.Service.o_stats.Objpool.Pstats.s_depot_contended
                  a.Service.o_stats.Objpool.Pstats.s_depot_contended (rate f)
                  (rate a) f.Service.o_p99 a.Service.o_p99))
  in
  Cmd.v
    (Cmd.info "service"
       ~doc:
         "Serve a production-shaped request load through the native \
          per-domain pool (lib/service): multi-domain workers, cross-domain \
          frees, p50/p99/p999 request latency, and depot-contention \
          accounting, with $(b,--mode both) A/B-ing fixed vs \
          contention-adaptive pool geometry (E15).")
    Term.(
      const run $ name_arg $ domains $ requests $ seed $ mode $ refill
      $ target $ depot_batches $ arrival $ obj_bytes)

let default =
  Term.(
    ret
      (const (fun () -> `Help (`Pager, None)) $ const ()))

let () =
  (* KMA_GEOMETRY first, so an explicit --geometry flag wins. *)
  (match Sim.Geometry.of_env () with
  | Ok g -> Sim.Geometry.set_ambient g
  | Error msg ->
      Printf.eprintf "kma_bench: bad %s: %s\n" Sim.Geometry.env_var msg;
      exit 2);
  let info =
    Cmd.info "kma_bench" ~version:"1.0"
      ~doc:
        "Reproduces the tables and figures of McKenney & Slingwine, USENIX \
         Winter 1993."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            fig7_cmd; fig8_cmd; fig9_cmd; opcounts_cmd; analysis_cmd;
            missrates_cmd; geometry_cmd; numa_cmd; lockfree_cmd;
            pressure_cmd; fuzz_cmd; cyclic_cmd; crosscpu_cmd; trace_cmd;
            scenario_cmd; service_cmd;
          ]))
