(* The full benchmark harness: regenerates every table and figure of
   McKenney & Slingwine (USENIX Winter 1993) at a scale that completes
   in a few minutes, runs the ablations called out in DESIGN.md, and
   finishes with the native per-domain pool.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig7 ...  # only the named sections

   Every section is a kma_bench command line (bench/rows.ml); this file
   adds the section timer, --compare-jobs1 and BENCH_host.json. *)

open Cmdliner

(* Run [f] with stdout sent to /dev/null: --compare-jobs1 re-runs
   sections purely for their host time, and their (identical) output
   must not appear twice. *)
let silenced f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

(* BENCH_host.json.  Every string in it is an ASCII identifier, which
   OCaml's %S quotes exactly as JSON does. *)
let str = Printf.sprintf "%S"
let secs = Printf.sprintf "%.3f"
let field (k, v) = str k ^ ": " ^ v
let obj fields = "{" ^ String.concat ", " (List.map field fields) ^ "}"

let arr = function
  | [] -> "[]"
  | items -> "[\n    " ^ String.concat ",\n    " items ^ "\n  ]"

let service_json (label, (o : Service.outcome)) =
  let s = o.o_stats and int = string_of_int and f0 = Printf.sprintf "%.0f" in
  obj
    [
      ("name", str label); ("domains", int o.o_domains);
      ("requests", int o.o_requests); ("ops", int o.o_ops);
      ("seconds", secs o.o_wall_s); ("ops_per_sec", f0 o.o_ops_per_sec);
      ("p50_ns", f0 o.o_p50); ("p99_ns", f0 o.o_p99); ("p999_ns", f0 o.o_p999);
      ("creates", int s.s_creates); ("depot_acquires", int s.s_depot_acquires);
      ("contended", int s.s_depot_contended);
      ( "contention_rate",
        Printf.sprintf "%.6f"
          (if Float.is_nan o.o_contention then 0. else o.o_contention) );
      ("drops", int s.s_drops); ("prefills", int s.s_prefills);
      ("grows", int s.s_grows);
      ("final_target", int o.o_final_target);
      ("final_bound", int o.o_final_bound);
    ]

let write_host_json path ~jobs records =
  let section (name, seconds, (l : Harness.ledger), jobs1) =
    obj
      [
        ("name", str name); ("seconds", secs seconds);
        ("jobs", string_of_int l.jobs);
        ("seconds_jobs1", Option.fold ~none:"null" ~some:secs jobs1);
        ( "speedup_vs_jobs1",
          match jobs1 with
          | Some t1 when seconds > 0. -> Printf.sprintf "%.2f" (t1 /. seconds)
          | _ -> "null" );
      ]
  in
  let scenario (name, seconds) =
    obj [ ("name", str name); ("seconds", secs seconds) ]
  in
  let each f = arr (List.concat_map (fun (_, _, l, _) -> f l) records) in
  let fields =
    [
      ("host_cores", string_of_int (Parallel.host_cores ()));
      ( "recommended_domains",
        string_of_int (Domain.recommended_domain_count ()) );
      ("jobs", string_of_int jobs);
      ("geometry", str (Sim.Geometry.to_string (Sim.Geometry.ambient ())));
      ( "total_seconds",
        secs (List.fold_left (fun a (_, s, _, _) -> a +. s) 0. records) );
      ("sections", arr (List.map section records));
      ( "scenarios",
        each (fun (l : Harness.ledger) -> List.map scenario l.scenarios) );
      ( "service",
        each (fun (l : Harness.ledger) -> List.map service_json l.service) );
    ]
  in
  let oc = open_out path in
  output_string oc
    ("{\n  " ^ String.concat ",\n  " (List.map field fields) ^ "\n}\n");
  close_out oc

let main geometry jobs checks allocs host_json no_host_json compare_jobs1
    names () =
  Option.iter Sim.Geometry.set_ambient geometry;
  let all = List.map fst Rows.rows in
  let names = if names = [] then List.filter (( <> ) "smoke") all else names in
  (match List.filter (fun n -> not (List.mem n all)) names with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown section %s (have: %s)\n"
        (String.concat ", " unknown) (String.concat ", " all);
      exit 2);
  (* Every row is parsed before any runs, so a bad one is a usage error
     with nothing run. *)
  let parse o name =
    match Rows.parse o name with Some run -> run | None -> exit 2
  in
  let opts = { Rows.jobs; checks; allocs } in
  let plan =
    List.map
      (fun name ->
        ( name,
          parse opts name,
          if compare_jobs1 then Some (parse { opts with jobs = 1 } name)
          else None ))
      names
  in
  let timed (name, run, run_jobs1) =
    let t0 = Harness.now_s () in
    let l = run () in
    let seconds = Harness.now_s () -. t0 in
    Printf.printf "(section took %.1fs of host time)\n" seconds;
    let jobs1 =
      match run_jobs1 with
      | Some run1 when l.Harness.jobs > 1 ->
          let t1 = Harness.now_s () in
          ignore (silenced run1);
          Some (Harness.now_s () -. t1)
      | _ -> None
    in
    (name, seconds, l, jobs1)
  in
  match List.map timed plan with
  | records ->
      if not no_host_json then write_host_json host_json ~jobs records;
      print_newline ();
      print_endline "bench: all requested sections completed"
  | exception Harness.Check_failed msg ->
      prerr_endline ("bench: " ^ msg);
      exit 3

let () =
  Harness.init_geometry "bench";
  let checks =
    Arg.(
      value
      & vflag_all []
          (List.map
             (fun c ->
               let name = Harness.check_name c in
               ( c,
                 info [ name ]
                   ~doc:
                     (Printf.sprintf
                        "Pass $(b,--%s) to every section whose command takes \
                         it."
                        name) ))
             Harness.[ Lockcheck; Heapcheck; Flightrec ]))
  in
  let allocs =
    Arg.(
      value
      & opt (list Harness.alloc_conv) Experiments.Lockfree_arms.default_whichs
      & info [ "allocs" ] ~docv:"NAME,NAME,..."
          ~doc:"Allocator arms of the lockfree section.")
  in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let term =
    Term.(
      const main $ Harness.geometry_flag $ Harness.jobs_flag $ checks $ allocs
      $ Arg.(
          value
          & opt string "BENCH_host.json"
          & info [ "host-json" ] ~docv:"PATH"
              ~doc:"Where to write the host-time ledger.")
      $ flag "no-host-json" "Do not write the host-time ledger."
      $ flag "compare-jobs1"
          "Re-run every section that fanned out at jobs=1, silently, and \
           record the speedup."
      $ Arg.(
          value & pos_all string []
          & info [] ~docv:"SECTION"
              ~doc:"Sections to run (default: all but smoke)."))
  in
  match
    Cmd.eval_value
      (Cmd.v (Cmd.info "bench" ~doc:"Regenerate every table and figure.") term)
  with
  | Ok (`Ok run) -> run ()
  | Ok (`Help | `Version) -> ()
  | Error _ -> exit 2
