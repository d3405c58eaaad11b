(* bench/main's sections.  Each is a kma_bench command line over
   lib/harness's table, at the scale that regenerates every table in a
   few minutes; "smoke" is the tiny run of dune's @runtest-smoke and is
   not part of the default run. *)

let rows =
  [
    ("analysis", "analysis --samples 150");
    ("opcounts", "opcounts");
    ("fig7", "fig7 --cpus 1,2,4,8,12,16,20,25 --iters 400 --semilog");
    ("fig9", "fig9 --memory-words 262144");
    ("missrates", "missrates --transactions 2000");
    ("geometry", "geometry");
    ("ablation-target", "ablation-target");
    ("ablation-pagepolicy", "ablation-pagepolicy");
    ("crosscpu", "crosscpu --allocs cookie,newkma,mk,oldkma");
    ( "lockfree",
      "lockfree --cpus 1,2,4,8,16,26 --iters 400 --pairs 1,2,4,8 \
       --blocks 300" );
    ("numa", "numa --cpus 32,64,128 --nodes 1,4 --iters 8");
    ("scenarios", "scenarios");
    ("roads-not-taken", "roads-not-taken");
    ("bechamel", "bechamel");
    ("pool-domains", "pool-domains");
    ("service", "service-matrix");
    ("pressure", "pressure");
    ("fuzz", "fuzz-matrix");
    ( "smoke",
      "missrates --cpus 2 --transactions 150 --flight-recorder --lockcheck" );
  ]

(* bench's global flags, as forwarded to every row. *)
type opts = {
  geometry : Sim.Geometry.t option;
  jobs : int;
  checks : Harness.check list;
  allocs : Baseline.Allocator.which list;
}

(* The section's command line with bench's flags appended: --geometry
   to every command that takes it, --jobs to every command that fans
   out, each armed checker to every command that accepts it (unless the
   row names its own checkers, as smoke does), and --allocs to the
   lockfree section alone. *)
let argv o section =
  let args = String.split_on_char ' ' (List.assoc section rows) in
  let flag c = "--" ^ Harness.check_name c in
  match
    List.find_opt (fun (e : Harness.t) -> e.name = List.hd args) Harness.table
  with
  | None -> args
  | Some e ->
      let pinned = List.exists (fun c -> List.mem (flag c) args) e.checks in
      let armed = List.filter (fun c -> List.mem c o.checks) e.checks in
      args
      @ (match o.geometry with
        | Some g when e.shaped -> [ "--geometry"; Sim.Geometry.to_string g ]
        | _ -> [])
      @ (if e.fans_out then [ "--jobs"; string_of_int o.jobs ] else [])
      @ (if pinned then [] else List.map flag armed)
      @
      if section = "lockfree" then
        let names = List.map Baseline.Allocator.name_of o.allocs in
        [ "--allocs"; String.concat "," names ]
      else []

let table =
  Cmdliner.Cmd.group (Cmdliner.Cmd.info "kma_bench")
    (List.map (Harness.cmd Fun.id) Harness.table)

(* The section's closure, or [None] (the error already on stderr) if its
   command line does not parse. *)
let parse o section =
  match
    Cmdliner.Cmd.eval_value
      ~argv:(Array.of_list ("kma_bench" :: argv o section))
      table
  with
  | Ok (`Ok run) -> Some run
  | Ok (`Help | `Version) | Error _ -> None
