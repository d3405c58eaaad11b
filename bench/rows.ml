(* bench/main's sections.  Each is a list of kma_bench command lines,
   run in order, at the scale that regenerates every table in a few
   minutes. *)

let rows =
  [
    ("analysis", [ "analysis --samples 150" ]);
    ("opcounts", [ "opcounts" ]);
    ("fig7", [ "fig7 --cpus 1,2,4,8,12,16,20,25 --iters 400 --semilog" ]);
    ("fig9", [ "fig9 --memory-words 262144" ]);
    ("missrates", [ "missrates --transactions 2000" ]);
    ("geometry", [ "geometry" ]);
    ("ablation-target", [ "ablation-target" ]);
    ("ablation-pagepolicy", [ "ablation-pagepolicy" ]);
    ("crosscpu", [ "crosscpu --allocs cookie,newkma,mk,oldkma" ]);
    ( "lockfree",
      [
        "lockfree --cpus 1,2,4,8,16,26 --iters 400 --pairs 1,2,4,8 \
         --blocks 300";
      ] );
    ("numa", [ "numa --cpus 32,64,128 --nodes 1,4 --iters 8" ]);
    ("scenarios", [ "scenarios" ]);
    (* The Lee-Barkley lazy buddy the paper argues against: Figure 7's
       comparison, and the worst-case sweep it completes. *)
    ( "roads-not-taken",
      [
        "fig7 --allocs cookie,newkma,lazybuddy --cpus 1,2,4,8 --iters 400";
        "fig9 --allocator lazybuddy --memory-words 262144";
      ] );
    ("bechamel", [ "bechamel" ]);
    ("pool-domains", [ "pool-domains" ]);
    (* E15: a steady closed loop, then the cross-domain producer/consumer
       flow with fixed and adaptive pool geometry. *)
    ( "service",
      [
        "service steady --mode fixed --domains 2 --requests 125000";
        "service producer_consumer --domains 4 --requests 150000";
      ] );
    ("pressure", [ "pressure" ]);
    ( "fuzz",
      [
        "fuzz --ops 1500 --seed 21";
        "fuzz --ops 1500 --seed 22 --pressure --fault-rate 0.3";
        "fuzz --ops 1500 --seed 23 --debug --mode sweep";
      ] );
  ]

(* bench's global flags, as forwarded to every command line. *)
type opts = {
  geometry : Sim.Geometry.t option;
  jobs : int;
  checks : Harness.check list;
}

(* A command line with bench's flags appended: --geometry to every
   command that takes it, --jobs to every command that fans out, and
   each armed checker to every command that accepts it. *)
let argv o line =
  let args = String.split_on_char ' ' line in
  let flag c = "--" ^ Harness.check_name c in
  match
    List.find_opt
      (fun (e : Harness.t) -> e.name = List.hd args)
      Harness.commands
  with
  | None -> args
  | Some e ->
      let armed = List.filter (fun c -> List.mem c o.checks) e.checks in
      args
      @ (match o.geometry with
        | Some g when e.shaped -> [ "--geometry"; Sim.Geometry.to_string g ]
        | _ -> [])
      @ (if e.fans_out then [ "--jobs"; string_of_int o.jobs ] else [])
      @ List.map flag armed

(* The section's command lines, each with bench's flags. *)
let argvs o section = List.map (argv o) (List.assoc section rows)

let kma_bench = Harness.kma_bench Fun.id

(* A command line's closure, or [None] (the error already on stderr) if
   it does not parse. *)
let parse_line args =
  match
    Cmdliner.Cmd.eval_value ~argv:(Array.of_list ("kma_bench" :: args))
      kma_bench
  with
  | Ok (`Ok run) -> Some run
  | Ok (`Help | `Version) | Error _ -> None

(* The section's closure: its lines run in order, their ledgers merged.
   [None] if any line does not parse. *)
let parse o section =
  let merge (l : Harness.ledger) (r : Harness.ledger) =
    {
      Harness.jobs = max l.jobs r.jobs;
      scenarios = l.scenarios @ r.scenarios;
      service = l.service @ r.service;
    }
  in
  let lines = argvs o section in
  let runs = List.filter_map parse_line lines in
  if List.compare_lengths runs lines <> 0 then None
  else
    Some
      (fun () ->
        List.fold_left
          (fun l run -> merge l (run ()))
          { Harness.jobs = 1; scenarios = []; service = [] }
          runs)
