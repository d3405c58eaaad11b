(* The full benchmark harness: regenerates every table and figure of
   McKenney & Slingwine (USENIX Winter 1993) at a scale that completes
   in a few minutes, runs the ablations called out in DESIGN.md, and
   finishes with the native per-domain pool.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig7 ...  # only the named sections

   Every section is a list of kma_bench command lines (bench/rows.ml);
   this file adds the section timer and BENCH_host.json. *)

open Cmdliner

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
      ("drops", int s.s_drops); ("grows", int s.s_grows);
      ("final_target", int o.o_final_target);
      ("final_bound", int o.o_final_bound);
    ]

let write_host_json path ~geometry ~jobs records =
  let section (name, seconds, (l : Harness.ledger)) =
    obj
      [
        ("name", str name); ("seconds", secs seconds);
        ("jobs", string_of_int l.jobs);
      ]
  in
  let scenario (name, seconds) =
    obj [ ("name", str name); ("seconds", secs seconds) ]
  in
  let each f = arr (List.concat_map (fun (_, _, l) -> f l) records) in
  let fields =
    [
      ("host_cores", string_of_int (Parallel.host_cores ()));
      ( "recommended_domains",
        string_of_int (Domain.recommended_domain_count ()) );
      ("jobs", string_of_int jobs);
      ("geometry", str (Sim.Geometry.to_string geometry));
      ( "total_seconds",
        secs (List.fold_left (fun a (_, s, _) -> a +. s) 0. records) );
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

let main geometry jobs checks host_json no_host_json names () =
  let all = List.map fst Rows.rows in
  let names = if names = [] then all else names in
  (match List.filter (fun n -> not (List.mem n all)) names with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown section %s (have: %s)\n"
        (String.concat ", " unknown) (String.concat ", " all);
      exit 2);
  (* Every row is parsed before any runs, so a bad one is a usage error
     with nothing run. *)
  let opts = { Rows.geometry; jobs; checks } in
  let plan =
    List.map
      (fun name ->
        match Rows.parse opts name with
        | Some run -> (name, run)
        | None -> exit 2)
      names
  in
  let timed (name, run) =
    let t0 = Harness.now_s () in
    let l = run () in
    let seconds = Harness.now_s () -. t0 in
    Printf.printf "(section took %.1fs of host time)\n" seconds;
    (name, seconds, l)
  in
  match List.map timed plan with
  | records ->
      if not no_host_json then
        write_host_json host_json
          ~geometry:(Option.value geometry ~default:Sim.Geometry.default)
          ~jobs records;
      print_newline ();
      print_endline "bench: all requested sections completed"
  | exception Harness.Check_failed msg ->
      prerr_endline ("bench: " ^ msg);
      exit 3

let () =
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
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let term =
    Term.(
      const main $ Harness.geometry_flag $ Harness.jobs_flag $ checks
      $ Arg.(
          value
          & opt string "BENCH_host.json"
          & info [ "host-json" ] ~docv:"PATH"
              ~doc:"Where to write the host-time ledger.")
      $ flag "no-host-json" "Do not write the host-time ledger."
      $ Arg.(
          value & pos_all string []
          & info [] ~docv:"SECTION"
              ~doc:"Sections to run (default: all)."))
  in
  match
    Cmd.eval_value
      (Cmd.v (Cmd.info "bench" ~doc:"Regenerate every table and figure.") term)
  with
  | Ok (`Ok run) -> run ()
  | Ok (`Help | `Version) -> ()
  | Error _ -> exit 2
