(* Geometry parsing and validation: the spec-string surface both
   drivers expose as --geometry.  The invariants are the
   ones documented in geometry.mli; the drivers rely on every bad spec
   coming back as [Error] (never an exception) so they can exit with a
   usage error before any simulation runs. *)

let geom = Alcotest.testable (Fmt.of_to_string Sim.Geometry.to_string) ( = )

let ok = function
  | Ok g -> g
  | Error m -> Alcotest.fail ("expected Ok, got Error: " ^ m)

let err name = function
  | Ok g ->
      Alcotest.fail
        (Printf.sprintf "%s: expected Error, got %s" name
           (Sim.Geometry.to_string g))
  | Error m ->
      Alcotest.(check bool)
        (name ^ ": message is not empty")
        true
        (String.length m > 0)

let test_default_round_trips () =
  Alcotest.check geom "of_string (to_string default)" Sim.Geometry.default
    (ok (Sim.Geometry.of_string (Sim.Geometry.to_string Sim.Geometry.default)))

let test_empty_spec_is_default () =
  Alcotest.check geom "empty spec" Sim.Geometry.default
    (ok (Sim.Geometry.of_string ""))

let test_partial_spec_overrides () =
  let g = ok (Sim.Geometry.of_string " line=16 , assoc=4 ") in
  Alcotest.(check int) "line" 16 g.Sim.Geometry.line_words;
  Alcotest.(check int) "assoc" 4 g.Sim.Geometry.ways;
  Alcotest.(check int)
    "untouched keys keep defaults" Sim.Geometry.default.Sim.Geometry.miss_cost
    g.Sim.Geometry.miss_cost

let test_costs_parse () =
  let g = ok (Sim.Geometry.of_string "insn=2,miss=60,c2c=100,upgrade=0,rmw=0") in
  Alcotest.(check int) "insn" 2 g.Sim.Geometry.insn_cost;
  Alcotest.(check int) "miss" 60 g.Sim.Geometry.miss_cost;
  Alcotest.(check int) "c2c" 100 g.Sim.Geometry.c2c_cost;
  Alcotest.(check int) "upgrade" 0 g.Sim.Geometry.upgrade_cost;
  Alcotest.(check int) "rmw" 0 g.Sim.Geometry.rmw_cost

let test_bad_specs_error () =
  List.iter
    (fun spec -> err spec (Sim.Geometry.of_string spec))
    [
      "bogus" (* not key=value *);
      "line" (* no '=' *);
      "line=eight" (* not an integer *);
      "pony=1" (* unknown key *);
      "line=3" (* not a power of two *);
      "line=-8" (* negative *);
      "miss=-1" (* negative cost *);
      "assoc=3" (* 3 does not divide 256 *);
      "assoc=2,lines=0" (* set-associative needs a bounded cache *);
      "lines=96,assoc=2" (* 48 sets: not a power of two *);
    ]

let test_validate_raises () =
  match
    Sim.Geometry.validate
      { Sim.Geometry.default with Sim.Geometry.line_words = 12 }
  with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument m ->
      Alcotest.(check bool) "names the field" true
        (String.length m > 0
        && String.length m >= 10
        && String.sub m 0 12 = "Sim.Geometry")

let test_ambient_install () =
  let g = ok (Sim.Geometry.of_string "line=16,lines=128") in
  Fun.protect
    ~finally:(fun () -> Sim.Geometry.set_ambient Sim.Geometry.default)
    (fun () ->
      Sim.Geometry.set_ambient g;
      Alcotest.check geom "ambient returns the installed geometry" g
        (Sim.Geometry.ambient ()));
  Alcotest.check geom "restored to default" Sim.Geometry.default
    (Sim.Geometry.ambient ())

let test_config_carries_geometry () =
  let g = ok (Sim.Geometry.of_string "line=16,lines=64,miss=42") in
  let c = Sim.Config.make ~geometry:g ~memory_words:(64 * 1024) () in
  Alcotest.check geom "the whole geometry" g c.Sim.Config.geometry

let suite =
  [
    Alcotest.test_case "default round-trips" `Quick test_default_round_trips;
    Alcotest.test_case "empty spec is default" `Quick
      test_empty_spec_is_default;
    Alcotest.test_case "partial spec overrides" `Quick
      test_partial_spec_overrides;
    Alcotest.test_case "cost keys parse" `Quick test_costs_parse;
    Alcotest.test_case "bad specs are Error" `Quick test_bad_specs_error;
    Alcotest.test_case "validate raises with field name" `Quick
      test_validate_raises;
    Alcotest.test_case "set_ambient installs" `Quick test_ambient_install;
    Alcotest.test_case "Config.make carries geometry" `Quick
      test_config_carries_geometry;
  ]
