(* Golden pins: the MD5 of every scenario's pathology report at its
   default seed, on the inline fast path and on the fully scheduled
   path.  Any change to the simulator's execution strategy that moves
   a single reported cycle, latency percentile or fragmentation sample
   fails here, even when every other suite still passes.  (A re-run of
   the same build, which is what "reports are byte-identical" compares,
   cannot catch that.) *)

let pins =
  [
    ("steady", "c540e3c5d0a75595daced5a443ef8ba2");
    ("rpc", "d254a87ca38de324686223354971d548");
    ("bursty", "8a26efdbca05e526ca20852854c6c4af");
    ("long_tail", "b3ecc70aaf7d4f716a0f99c2c5deac54");
    ("producer_consumer", "f4304aaf7d1b98727a8b424e1ed9d7d3");
    ("frag_adversary", "7a6266a6fdf815732965a81479f52624");
    ("recorded_dlm", "4d383353effa74601e548e5cb871b390");
  ]

let report name =
  let s = List.find (fun (s : Scenario.t) -> s.name = name) Scenario.all in
  Scenario.Pathology.to_string
    (Scenario.Pathology.analyze ~name
       (s.Scenario.generate ~seed:s.Scenario.default_seed))

let with_fast_path on f =
  Sim.Machine.set_fast_path_oracle on;
  Fun.protect ~finally:(fun () -> Sim.Machine.set_fast_path_oracle true) f

let check_pins ~fast () =
  with_fast_path fast (fun () ->
      List.iter
        (fun (name, want) ->
          Alcotest.(check string)
            (name ^ " report digest") want
            (Digest.to_hex (Digest.string (report name))))
        pins)

(* The one figure a recorder that runs ahead of the schedule is known to
   move (the recorded trace's event order), pinned readably as well. *)
let test_recorded_dlm_cycles () =
  let r = report "recorded_dlm" in
  let want = "in 64169 cycles" in
  let n = String.length want in
  let rec has i =
    i + n <= String.length r && (String.sub r i n = want || has (i + 1))
  in
  Alcotest.(check bool) "recorded_dlm replays in 64169 cycles" true (has 0)

let suite =
  [
    Alcotest.test_case "every scenario report matches its pin (fast path)"
      `Quick (check_pins ~fast:true);
    Alcotest.test_case "every scenario report matches its pin (scheduled)"
      `Quick (check_pins ~fast:false);
    Alcotest.test_case "recorded_dlm cycle count" `Quick
      test_recorded_dlm_cycles;
  ]
