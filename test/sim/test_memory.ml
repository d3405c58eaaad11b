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
  expect_invalid (fun () -> Sim.Memory.fill m 30 ~len:4 1);
  (* An empty range is a no-op at any in-bounds address, the first and
     the last included; a negative length is refused. *)
  Sim.Memory.fill m 0 ~len:0 9;
  Sim.Memory.fill m 31 ~len:0 9;
  Alcotest.(check (array int))
    "empty blit" [||]
    (Sim.Memory.blit_to_host_oracle m 0 ~len:0);
  Alcotest.(check (array int))
    "empty fills wrote nothing"
    (Array.init 32 (fun a -> if a >= 4 && a < 12 then 7 else 0))
    (Sim.Memory.blit_to_host_oracle m 0 ~len:32);
  expect_invalid (fun () -> Sim.Memory.fill m 10 ~len:(-3) 1);
  expect_invalid (fun () -> Sim.Memory.blit_to_host_oracle m 10 ~len:(-3))

(* Paging, on a memory of three 4096-word pages and a short fourth
   page of 5 words. *)
let page = 4096
let paged_words = (3 * page) + 5
let page_starts = [ 0; page; 2 * page; 3 * page ]
let page_last p = Int.min (p + page) paged_words - 1

let test_untouched_reads_zero () =
  let m = Sim.Memory.create ~words:paged_words in
  for a = 0 to paged_words - 1 do
    if Sim.Memory.get m a <> 0 then Alcotest.failf "word %d reads nonzero" a
  done;
  Alcotest.(check int) "no page materialized" 0
    (Sim.Memory.materialized_pages_oracle m)

let test_page_edges_read_back () =
  let m = Sim.Memory.create ~words:paged_words in
  List.iter
    (fun p ->
      Sim.Memory.set m p (p + 1);
      Sim.Memory.set m (page_last p) (-(p + 2)))
    page_starts;
  List.iter
    (fun p ->
      Alcotest.(check int) "first word" (p + 1) (Sim.Memory.get m p);
      Alcotest.(check int) "last word" (-(p + 2)) (Sim.Memory.get m (page_last p));
      Alcotest.(check int) "its neighbour" 0 (Sim.Memory.get m (p + 1)))
    page_starts;
  Alcotest.(check int) "every page materialized" 4
    (Sim.Memory.materialized_pages_oracle m)

let test_nonzero_store_materializes_one_page () =
  let m = Sim.Memory.create ~words:paged_words in
  Sim.Memory.set m (page + 17) 0;
  Alcotest.(check int) "a zero store writes nothing" 0
    (Sim.Memory.materialized_pages_oracle m);
  Sim.Memory.set m (page + 17) 9;
  Alcotest.(check int) "a nonzero store materializes its page" 1
    (Sim.Memory.materialized_pages_oracle m);
  Sim.Memory.set m (page + 17) 0;
  Alcotest.(check int) "cleared on its own page" 0
    (Sim.Memory.get m (page + 17));
  Alcotest.(check int) "and stays materialized" 1
    (Sim.Memory.materialized_pages_oracle m)

let test_fill_across_pages () =
  let m = Sim.Memory.create ~words:paged_words in
  Sim.Memory.fill m 0 ~len:paged_words 0;
  Alcotest.(check int) "a zero fill materializes nothing" 0
    (Sim.Memory.materialized_pages_oracle m);
  Sim.Memory.fill m (page - 3) ~len:(page + 6) 5;
  Alcotest.(check int) "three pages touched" 3
    (Sim.Memory.materialized_pages_oracle m);
  Alcotest.(check (array int))
    "across both boundaries"
    (Array.concat [ [| 0 |]; Array.make (page + 6) 5; [| 0 |] ])
    (Sim.Memory.blit_to_host_oracle m (page - 4) ~len:(page + 8));
  Sim.Memory.set m (3 * page) 7;
  Alcotest.(check (array int))
    "blit into the short last page"
    [| 0; 0; 0; 7; 0; 0; 0; 0 |]
    (Sim.Memory.blit_to_host_oracle m ((3 * page) - 3) ~len:8);
  Sim.Memory.fill m 0 ~len:paged_words 0;
  Alcotest.(check int) "zero fill over written pages" 0
    (Sim.Memory.get m page)

let expect_message msg f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_argument %S" msg
  | exception Invalid_argument m -> Alcotest.(check string) "message" msg m

let test_paged_bounds () =
  let m = Sim.Memory.create ~words:paged_words in
  let oob who a =
    Printf.sprintf "Sim.Memory.%s: address %d out of bounds [0, %d)" who a
      paged_words
  in
  expect_message (oob "get" paged_words) (fun () ->
      Sim.Memory.get m paged_words);
  expect_message (oob "get" (-1)) (fun () -> Sim.Memory.get m (-1));
  expect_message (oob "set" paged_words) (fun () ->
      Sim.Memory.set m paged_words 1);
  expect_message (oob "set" (-1)) (fun () -> Sim.Memory.set m (-1) 0);
  expect_message (oob "fill" paged_words) (fun () ->
      Sim.Memory.fill m (paged_words - 2) ~len:3 1);
  Alcotest.(check int) "a refused store materializes nothing" 0
    (Sim.Memory.materialized_pages_oracle m)

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
    Alcotest.test_case "untouched pages read zero" `Quick
      test_untouched_reads_zero;
    Alcotest.test_case "page edges read back" `Quick test_page_edges_read_back;
    Alcotest.test_case "a nonzero store materializes one page" `Quick
      test_nonzero_store_materializes_one_page;
    Alcotest.test_case "fill and blit across pages" `Quick
      test_fill_across_pages;
    Alcotest.test_case "paged bounds keep their messages" `Quick
      test_paged_bounds;
    QCheck_alcotest.to_alcotest prop_random_writes;
  ]
