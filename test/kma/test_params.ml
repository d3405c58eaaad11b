open Kma

let expect_invalid f =
  match f () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_default_valid () = Params.validate Params.default

let test_target_heuristic () =
  (* The paper: target ranges from 10 for 16-byte blocks to 2 for
     4096-byte blocks. *)
  let target bytes =
    let p = Params.default in
    p.Params.targets.(Option.get (Params.size_index_of_bytes p bytes))
  in
  Alcotest.(check int) "16B" 10 (target 16);
  Alcotest.(check int) "256B" 10 (target 256);
  Alcotest.(check int) "512B" 8 (target 512);
  Alcotest.(check int) "1024B" 4 (target 1024);
  Alcotest.(check int) "2048B" 2 (target 2048);
  Alcotest.(check int) "4096B" 2 (target 4096)

let test_gbltarget_heuristic () =
  (* The paper: gbltarget of 15 for small blocks (target 10). *)
  Alcotest.(check int) "target 10" 15 (Params.default_gbltarget ~target:10);
  Alcotest.(check int) "target 2" 3 (Params.default_gbltarget ~target:2)

let test_default_sizes () =
  let p = Params.default in
  Alcotest.(check (array int))
    "nine power-of-two classes"
    [| 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 |]
    p.Params.sizes_bytes;
  Alcotest.(check int) "nsizes" 9 (Params.nsizes p)

let test_size_words () =
  let p = Params.default in
  Alcotest.(check int) "16B = 4 words" 4 (Params.size_words p 0);
  Alcotest.(check int) "4096B = 1024 words" 1024 (Params.size_words p 8)

let test_blocks_per_page () =
  let p = Params.default in
  Alcotest.(check int) "16B" 256 (Params.blocks_per_page p 0);
  Alcotest.(check int) "4096B" 1 (Params.blocks_per_page p 8)

let test_size_index_of_bytes () =
  let p = Params.default in
  Alcotest.(check (option int)) "1 byte" (Some 0)
    (Params.size_index_of_bytes p 1);
  Alcotest.(check (option int)) "16" (Some 0) (Params.size_index_of_bytes p 16);
  Alcotest.(check (option int)) "17" (Some 1) (Params.size_index_of_bytes p 17);
  Alcotest.(check (option int)) "50" (Some 2) (Params.size_index_of_bytes p 50);
  Alcotest.(check (option int)) "4096" (Some 8)
    (Params.size_index_of_bytes p 4096);
  Alcotest.(check (option int)) "4097" None
    (Params.size_index_of_bytes p 4097);
  Alcotest.(check (option int)) "0" None (Params.size_index_of_bytes p 0)

let test_validation_rejects () =
  expect_invalid (fun () -> Params.make ~sizes_bytes:[| 16; 16 |] ());
  expect_invalid (fun () -> Params.make ~sizes_bytes:[| 24; 4096 |] ());
  expect_invalid (fun () -> Params.make ~vmblk_pages:5 ());
  expect_invalid (fun () -> Params.make ~page_bytes:2048 ());
  expect_invalid (fun () -> Params.make ~targets:(Array.make 9 0) ());
  expect_invalid (fun () -> Params.make ~targets:[| 1; 2 |] ());
  expect_invalid (fun () -> Params.make ~phys_pages:0 ())

let prop_size_index_minimal =
  QCheck.Test.make ~name:"size_index picks the smallest fitting class"
    ~count:200
    QCheck.(int_range 1 4096)
    (fun bytes ->
      let p = Params.default in
      match Params.size_index_of_bytes p bytes with
      | None -> false
      | Some si ->
          p.Params.sizes_bytes.(si) >= bytes
          && (si = 0 || p.Params.sizes_bytes.(si - 1) < bytes))

let suite =
  [
    Alcotest.test_case "default validates" `Quick test_default_valid;
    Alcotest.test_case "target heuristic matches paper" `Quick
      test_target_heuristic;
    Alcotest.test_case "gbltarget heuristic matches paper" `Quick
      test_gbltarget_heuristic;
    Alcotest.test_case "default size classes" `Quick test_default_sizes;
    Alcotest.test_case "size_words" `Quick test_size_words;
    Alcotest.test_case "blocks_per_page" `Quick test_blocks_per_page;
    Alcotest.test_case "size_index_of_bytes" `Quick test_size_index_of_bytes;
    Alcotest.test_case "validation rejects bad configs" `Quick
      test_validation_rejects;
    QCheck_alcotest.to_alcotest prop_size_index_minimal;
  ]
