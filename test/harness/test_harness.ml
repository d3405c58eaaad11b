(* Every bench row parses against the table it names, with and without
   bench's global flags, and each global flag reaches exactly the
   sections it is meant to. *)

let sections = List.map fst Rows.rows

let opts ?(checks = []) ?(allocs = Experiments.Lockfree_arms.default_whichs)
    jobs =
  { Rows.jobs; checks; allocs }

let every_check = Harness.[ Lockcheck; Heapcheck; Flightrec ]

let test_rows_parse () =
  List.iter
    (fun o ->
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (String.concat " " (Rows.argv o s))
            true
            (Rows.parse o s <> None))
        sections)
    [
      opts 1;
      opts 4;
      opts ~checks:every_check 2;
      opts ~allocs:Baseline.Allocator.[ Nbbuddy; Cookie ] 1;
    ]

let reached o flag =
  List.filter (fun s -> List.mem flag (Rows.argv o s)) sections

let test_forwarding () =
  let armed = opts ~checks:every_check 3 in
  let check flag expected =
    Alcotest.(check (list string)) flag expected (reached armed flag)
  in
  check "--lockcheck" [ "analysis"; "missrates"; "pressure"; "smoke" ];
  check "--heapcheck" [ "missrates"; "pressure" ];
  check "--flight-recorder" [ "missrates"; "pressure"; "smoke" ];
  check "--jobs"
    [
      "opcounts"; "fig7"; "fig9"; "geometry"; "ablation-target";
      "ablation-pagepolicy"; "crosscpu"; "lockfree"; "numa"; "scenarios";
      "roads-not-taken"; "pressure"; "fuzz";
    ];
  (* --allocs reaches the lockfree section alone (crosscpu's row names
     its own roster). *)
  let nbbuddy = opts ~allocs:[ Baseline.Allocator.Nbbuddy ] 3 in
  Alcotest.(check (list string))
    "--allocs" [ "lockfree" ]
    (List.filter
       (fun s -> Rows.argv nbbuddy s <> Rows.argv (opts 3) s)
       sections)

let () =
  Alcotest.run "harness"
    [
      ( "rows",
        [
          Alcotest.test_case "every bench row parses" `Quick test_rows_parse;
          Alcotest.test_case "global flags reach their sections" `Quick
            test_forwarding;
        ] );
    ]
