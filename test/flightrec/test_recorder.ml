open Flightrec

(* Every test installs its own recorder; uninstall on the way out so
   suites stay independent. *)
let with_recorder ?capacity ~ncpus f =
  let r = Recorder.create ?capacity ~ncpus () in
  Recorder.install r;
  Fun.protect ~finally:(fun () -> Recorder.uninstall ()) (fun () -> f r)

let ev ~cpu ~time kind = Recorder.emit ~cpu ~time kind

let count = List.length

let test_on_flag () =
  Alcotest.(check bool) "off before install" false (Recorder.on ());
  with_recorder ~ncpus:1 (fun _ ->
      Alcotest.(check bool) "on after install" true (Recorder.on ()));
  Alcotest.(check bool) "off after uninstall" false (Recorder.on ())

let test_percpu_isolation () =
  with_recorder ~ncpus:3 (fun r ->
      ev ~cpu:0 ~time:10 (Event.Alloc { si = 1; layer = Event.Percpu });
      ev ~cpu:1 ~time:11 (Event.Alloc { si = 2; layer = Event.Global });
      ev ~cpu:1 ~time:12 (Event.Free { si = 2; layer = Event.Percpu });
      ev ~cpu:2 ~time:13 Event.Vm_grant;
      Alcotest.(check int) "cpu0 sees its own" 1
        (count (Recorder.events ~cpu:0 r));
      Alcotest.(check int) "cpu1 sees its own" 2
        (count (Recorder.events ~cpu:1 r));
      Alcotest.(check int) "cpu2 sees its own" 1
        (count (Recorder.events ~cpu:2 r));
      Alcotest.(check int) "merged view has all" 4
        (count (Recorder.events r));
      (* Wrap cpu0's ring only: other CPUs lose nothing. *)
      let r2 = Recorder.create ~capacity:2 ~ncpus:2 () in
      Recorder.install r2;
      for i = 1 to 5 do
        Recorder.emit ~cpu:0 ~time:i Event.Vm_grant
      done;
      Recorder.emit ~cpu:1 ~time:99 Event.Vm_reclaim;
      Alcotest.(check int) "cpu0 dropped" 3 (Recorder.drops r2 ~cpu:0);
      Alcotest.(check int) "cpu1 intact" 0 (Recorder.drops r2 ~cpu:1);
      Alcotest.(check int) "cpu1 retained" 1
        (count (Recorder.events ~cpu:1 r2)))

let test_time_window () =
  with_recorder ~ncpus:2 (fun r ->
      List.iter
        (fun (cpu, time) -> ev ~cpu ~time Event.Vm_grant)
        [ (0, 5); (0, 10); (0, 20); (1, 7); (1, 15) ];
      Alcotest.(check int) "inclusive window" 3
        (count (Recorder.events ~t_min:7 ~t_max:15 r));
      Alcotest.(check int) "open below" 4
        (count (Recorder.events ~t_max:15 r));
      Alcotest.(check int) "open above" 3
        (count (Recorder.events ~t_min:10 r));
      Alcotest.(check int) "window and cpu compose" 1
        (count (Recorder.events ~cpu:1 ~t_min:7 ~t_max:14 r));
      let times =
        List.map (fun e -> e.Event.time) (Recorder.events r)
      in
      Alcotest.(check (list int))
        "merged in time order" [ 5; 7; 10; 15; 20 ] times)

let test_filters () =
  with_recorder ~ncpus:1 (fun r ->
      ev ~cpu:0 ~time:1 (Event.Alloc { si = 3; layer = Event.Percpu });
      ev ~cpu:0 ~time:2 (Event.Alloc { si = 4; layer = Event.Global });
      ev ~cpu:0 ~time:3 (Event.Gbl_get { si = 3; miss = true });
      ev ~cpu:0 ~time:4 (Event.Lock_acquire { lock = 77; spins = 2 });
      Alcotest.(check int) "si filter" 2 (count (Recorder.events ~si:3 r));
      Alcotest.(check int) "kind filter" 1
        (count
           (Recorder.events
              ~kind:(fun k ->
                match k with Event.Lock_acquire _ -> true | _ -> false)
              r)))

let test_oob () =
  with_recorder ~ncpus:2 (fun r ->
      ev ~cpu:5 ~time:1 Event.Vm_grant;
      ev ~cpu:(-1) ~time:1 Event.Vm_grant;
      Alcotest.(check int) "oob counted" 2 (Recorder.oob r);
      Alcotest.(check int) "nothing stored" 0 (Recorder.recorded r))

let test_lock_names () =
  with_recorder ~ncpus:1 (fun r ->
      Recorder.note_lock ~addr:123 "gbl[64B]";
      Alcotest.(check string) "named" "gbl[64B]" (Recorder.lock_name r 123);
      Alcotest.(check string) "fallback" "lock@9" (Recorder.lock_name r 9));
  (* No recorder installed: note_lock is a no-op, not an error. *)
  Recorder.note_lock ~addr:1 "ignored"

let suite =
  [
    Alcotest.test_case "on flag tracks install/enable" `Quick test_on_flag;
    Alcotest.test_case "per-CPU isolation" `Quick test_percpu_isolation;
    Alcotest.test_case "time-window filtering" `Quick test_time_window;
    Alcotest.test_case "si and kind filters" `Quick test_filters;
    Alcotest.test_case "out-of-range CPUs counted" `Quick test_oob;
    Alcotest.test_case "lock-name registry" `Quick test_lock_names;
  ]
