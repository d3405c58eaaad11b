let expect_invalid f =
  match f () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_zero_filled () =
  let m = Sim.Memory.create ~words:64 in
  for a = 0 to 63 do
    Alcotest.(check int) "zero" 0 (Sim.Memory.get m a)
  done

let test_roundtrip () =
  let m = Sim.Memory.create ~words:64 in
  Sim.Memory.set m 7 12345;
  Sim.Memory.set m 0 (-9);
  Alcotest.(check int) "word 7" 12345 (Sim.Memory.get m 7);
  Alcotest.(check int) "word 0" (-9) (Sim.Memory.get m 0);
  Alcotest.(check int) "untouched" 0 (Sim.Memory.get m 8)

let test_bounds () =
  let m = Sim.Memory.create ~words:16 in
  expect_invalid (fun () -> Sim.Memory.get m 16);
  expect_invalid (fun () -> Sim.Memory.get m (-1));
  expect_invalid (fun () -> Sim.Memory.set m 16 0);
  expect_invalid (fun () -> Sim.Memory.create ~words:0)

let test_fill_and_blit () =
  let m = Sim.Memory.create ~words:32 in
  Sim.Memory.fill m 4 ~len:8 7;
  let region = Sim.Memory.blit_to_host_oracle m 3 ~len:10 in
  Alcotest.(check (array int))
    "fill region"
    [| 0; 7; 7; 7; 7; 7; 7; 7; 7; 0 |]
    region;
  expect_invalid (fun () -> Sim.Memory.fill m 30 ~len:4 1)

let prop_random_writes =
  QCheck.Test.make ~name:"random writes read back" ~count:100
    QCheck.(small_list (pair (int_bound 255) int))
    (fun writes ->
      let m = Sim.Memory.create ~words:256 in
      let oracle = Array.make 256 0 in
      List.iter
        (fun (a, v) ->
          Sim.Memory.set m a v;
          oracle.(a) <- v)
        writes;
      Array.for_all Fun.id
        (Array.init 256 (fun a -> Sim.Memory.get m a = oracle.(a))))

let suite =
  [
    Alcotest.test_case "created zero-filled" `Quick test_zero_filled;
    Alcotest.test_case "set/get roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "bounds checked" `Quick test_bounds;
    Alcotest.test_case "fill and blit_to_host" `Quick test_fill_and_blit;
    QCheck_alcotest.to_alcotest prop_random_writes;
  ]
