(* Every bench row is a list of kma_bench command lines that parse, with
   and without bench's global flags, and each global flag reaches
   exactly the sections it is meant to. *)

let sections = List.map fst Rows.rows
let opts ?geometry ?(checks = []) jobs = { Rows.geometry; jobs; checks }
let every_check = Harness.[ Lockcheck; Heapcheck; Flightrec ]

let test_rows_parse () =
  List.iter
    (fun o ->
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (String.concat " ; "
               (List.map (String.concat " ") (Rows.argvs o s)))
            true
            (Rows.parse o s <> None))
        sections)
    [
      opts 1;
      opts 4;
      opts ~checks:every_check 2;
      opts ~geometry:{ Sim.Geometry.default with line_words = 16 } 2;
    ]

(* No bench-only experiment: every line of every row runs a kma_bench
   subcommand. *)
let test_rows_are_commands () =
  let names = List.map (fun (e : Harness.t) -> e.name) Harness.commands in
  List.iter
    (fun (s, lines) ->
      List.iter
        (fun line ->
          let command = List.hd (String.split_on_char ' ' line) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s is a kma_bench command" s command)
            true (List.mem command names))
        lines)
    Rows.rows

let reached o flag =
  List.filter
    (fun s -> List.exists (List.mem flag) (Rows.argvs o s))
    sections

let test_forwarding () =
  let armed = opts ~geometry:Sim.Geometry.default ~checks:every_check 3 in
  let check flag expected =
    Alcotest.(check (list string)) flag expected (reached armed flag)
  in
  check "--lockcheck" [ "analysis"; "missrates"; "pressure" ];
  check "--heapcheck" [ "missrates"; "pressure" ];
  check "--flight-recorder" [ "missrates"; "pressure" ];
  (* --geometry reaches every section that simulates a machine. *)
  check "--geometry"
    [
      "analysis"; "opcounts"; "fig7"; "fig9"; "missrates"; "geometry";
      "ablation-target"; "ablation-pagepolicy"; "crosscpu"; "lockfree"; "numa";
      "scenarios"; "roads-not-taken"; "pressure";
    ];
  check "--jobs"
    [
      "opcounts"; "fig7"; "fig9"; "geometry"; "ablation-target";
      "ablation-pagepolicy"; "crosscpu"; "lockfree"; "numa"; "scenarios";
      "roads-not-taken"; "pressure";
    ]

(* The service command hands each mode's outcome to the ledger under
   <shape>/<mode>. *)
let test_service_ledger () =
  match
    Rows.parse_line
      [ "service"; "steady"; "--domains"; "1"; "--requests"; "200" ]
  with
  | None -> Alcotest.fail "service line does not parse"
  | Some run ->
      Alcotest.(check (list string))
        "labels"
        [ "steady/fixed"; "steady/adaptive" ]
        (List.map fst (run ()).Harness.service)

let () =
  Alcotest.run "harness"
    [
      ( "rows",
        [
          Alcotest.test_case "every bench row parses" `Quick test_rows_parse;
          Alcotest.test_case "every bench line is a kma_bench command" `Quick
            test_rows_are_commands;
          Alcotest.test_case "global flags reach their sections" `Quick
            test_forwarding;
          Alcotest.test_case "service ledger labels each mode" `Quick
            test_service_ledger;
        ] );
    ]
