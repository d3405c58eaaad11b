open Flightrec

let to_list r = List.rev (Ring.fold r ~init:[] ~f:(fun acc x -> x :: acc))

let test_fill_without_wrap () =
  let r = Ring.create ~capacity:8 ~dummy:0 in
  for i = 1 to 5 do
    Ring.push r i
  done;
  Alcotest.(check int) "length" 5 (Ring.length r);
  Alcotest.(check int) "total" 5 (Ring.total r);
  Alcotest.(check int) "no drops" 0 (Ring.dropped r);
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5 ] (to_list r)

let test_wraparound_drops_oldest () =
  let r = Ring.create ~capacity:4 ~dummy:0 in
  for i = 1 to 10 do
    Ring.push r i
  done;
  Alcotest.(check int) "length capped" 4 (Ring.length r);
  Alcotest.(check int) "total counts everything" 10 (Ring.total r);
  Alcotest.(check int) "dropped = total - capacity" 6 (Ring.dropped r);
  Alcotest.(check (list int))
    "newest window, oldest first" [ 7; 8; 9; 10 ] (to_list r)

let test_capacity_one () =
  let r = Ring.create ~capacity:1 ~dummy:0 in
  Ring.push r 1;
  Ring.push r 2;
  Alcotest.(check (list int)) "keeps only newest" [ 2 ] (to_list r);
  Alcotest.(check int) "one drop" 1 (Ring.dropped r)

let test_bad_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Flightrec.Ring.create: capacity < 1") (fun () ->
      ignore (Ring.create ~capacity:0 ~dummy:0))

let suite =
  [
    Alcotest.test_case "fill without wrap" `Quick test_fill_without_wrap;
    Alcotest.test_case "wraparound drops oldest" `Quick
      test_wraparound_drops_oldest;
    Alcotest.test_case "capacity one" `Quick test_capacity_one;
    Alcotest.test_case "bad capacity rejected" `Quick test_bad_capacity;
  ]
