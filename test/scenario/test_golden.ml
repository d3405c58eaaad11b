(* Golden pins: the MD5 of every scenario's pathology report at its
   default seed, on the inline fast path and on the fully scheduled
   path.  The values were taken from the commit before the simulator
   began running CPU-private operations ahead of its schedule, so any
   change to the simulator's execution strategy that moves a single
   reported cycle, latency percentile or fragmentation sample fails
   here, even when every other suite still passes.  (A re-run of the
   same build, which is what "reports are byte-identical" compares,
   cannot catch that.) *)

let pins =
  [
    ("steady", "89bb861196e445de94118d155620e2d6");
    ("rpc", "df1e574284fe9d187cb7a6b92288cfdb");
    ("bursty", "8c22278bc91e0a429bd2ede291c80f95");
    ("long_tail", "081a7c2a70aa2748ca3f5961e371d78c");
    ("producer_consumer", "e775a0f2d4f08844b80d344d0e7c52ca");
    ("frag_adversary", "1a7c70d0cb5d4a69874fb58ef8d140cd");
    ("recorded_dlm", "6fe35b24d5ffd48b4e392c8d91b780bb");
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
  let want = "in 64172 cycles" in
  let n = String.length want in
  let rec has i =
    i + n <= String.length r && (String.sub r i n = want || has (i + 1))
  in
  Alcotest.(check bool) "recorded_dlm replays in 64172 cycles" true (has 0)

let suite =
  [
    Alcotest.test_case "every scenario report matches its pin (fast path)"
      `Quick (check_pins ~fast:true);
    Alcotest.test_case "every scenario report matches its pin (scheduled)"
      `Quick (check_pins ~fast:false);
    Alcotest.test_case "recorded_dlm cycle count" `Quick
      test_recorded_dlm_cycles;
  ]
