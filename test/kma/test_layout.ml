open Kma

let layout ?(ncpus = 4) ?(memory_words = 131072) () =
  Layout.make
    (Sim.Config.make ~ncpus ~memory_words ())
    (Util.small_params ())

let test_regions_ordered () =
  let ly = layout () in
  Alcotest.(check bool) "table after reserved" true
    (ly.Layout.size_table_base >= 16);
  Alcotest.(check bool) "percpu after table" true
    (ly.Layout.percpu_base
    >= ly.Layout.size_table_base + ly.Layout.size_table_len);
  Alcotest.(check bool) "control before arena" true
    (ly.Layout.control_words <= ly.Layout.vmblk_base);
  Alcotest.(check bool) "arena fits" true
    (ly.Layout.vmblk_base
     + (ly.Layout.arena_vmblks * ly.Layout.vmblk_words)
    <= 131072)

let test_vmblk_alignment () =
  let ly = layout () in
  Alcotest.(check int) "vmblk base aligned" 0
    (ly.Layout.vmblk_base mod ly.Layout.vmblk_words);
  for i = 0 to ly.Layout.arena_vmblks - 1 do
    let vb = Layout.vmblk_addr ly ~index:i in
    Alcotest.(check int) "each vmblk aligned" 0 (vb mod ly.Layout.vmblk_words);
    Alcotest.(check int) "mask recovers base" vb (Layout.vmblk_of_addr ly vb);
    Alcotest.(check int) "mask inside data" vb
      (Layout.vmblk_of_addr ly (vb + ly.Layout.vmblk_words - 1))
  done

let test_pcc_isolation () =
  let ly = layout () in
  (* Distinct (cpu, size) pairs must live on distinct cache lines. *)
  let line = 8 in
  let all =
    List.concat_map
      (fun cpu ->
        List.map
          (fun si -> Layout.pcc_addr ly ~cpu ~si / line)
          (List.init ly.Layout.nsizes Fun.id))
      (List.init ly.Layout.ncpus Fun.id)
  in
  let sorted = List.sort_uniq compare all in
  Alcotest.(check int) "no shared lines" (List.length all)
    (List.length sorted)

(* Data page [dp] of vmblk [vb] lies after the vmblk's header pages. *)
let data_page ly vb dp =
  vb + ((ly.Layout.hdr_pages + dp) lsl ly.Layout.page_shift)

let test_pd_roundtrip () =
  let ly = layout () in
  for i = 0 to ly.Layout.arena_vmblks - 1 do
    let vb = Layout.vmblk_addr ly ~index:i in
    for dp = 0 to ly.Layout.data_pages - 1 do
      let page = data_page ly vb dp in
      let pd = Layout.pd_of_page ly ~page_addr:page in
      Alcotest.(check int) "pd in header" vb (Layout.vmblk_of_addr ly pd);
      Alcotest.(check int) "page_of_pd inverts" page (Layout.page_of_pd ly ~pd);
      (* Any block inside the page maps to the same descriptor. *)
      let pd' = Layout.pd_of_page ly ~page_addr:page in
      Alcotest.(check int) "stable" pd pd'
    done
  done

let test_header_capacity () =
  let ly = layout () in
  Alcotest.(check bool) "descriptors fit in header" true
    (ly.Layout.data_pages * ly.Layout.pd_words
    <= ly.Layout.hdr_pages * ly.Layout.page_words);
  Alcotest.(check int) "pages partitioned"
    ly.Layout.vmblk_pages
    (ly.Layout.hdr_pages + ly.Layout.data_pages)

let test_dope_covers_arena () =
  let ly = layout () in
  let last =
    Layout.vmblk_addr ly ~index:(ly.Layout.arena_vmblks - 1)
    + ly.Layout.vmblk_words - 1
  in
  Alcotest.(check bool) "last arena address indexable" true
    (Layout.dope_entry ly last < ly.Layout.dope_base + ly.Layout.dope_len)

let test_too_small_memory () =
  match
    Layout.make
      (Sim.Config.make ~memory_words:8192 ())
      (Util.small_params ())
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let prop_pd_of_block_constant_within_page =
  QCheck.Test.make ~name:"all blocks of a page share a descriptor" ~count:100
    QCheck.(pair (int_bound 6) (int_bound 1023))
    (fun (dp_mod, offset) ->
      let ly = layout () in
      let dp = dp_mod mod ly.Layout.data_pages in
      let vb = Layout.vmblk_addr ly ~index:0 in
      let page = data_page ly vb dp in
      Layout.pd_of_page ly ~page_addr:(page + offset - (offset mod 4))
      = Layout.pd_of_page ly ~page_addr:page
      || offset >= ly.Layout.page_words)

let suite =
  [
    Alcotest.test_case "regions ordered and in bounds" `Quick
      test_regions_ordered;
    Alcotest.test_case "vmblks aligned for dope masking" `Quick
      test_vmblk_alignment;
    Alcotest.test_case "per-CPU caches cache-line isolated" `Quick
      test_pcc_isolation;
    Alcotest.test_case "pd <-> page roundtrip" `Quick test_pd_roundtrip;
    Alcotest.test_case "descriptor header capacity" `Quick
      test_header_capacity;
    Alcotest.test_case "dope vector covers arena" `Quick
      test_dope_covers_arena;
    Alcotest.test_case "tiny memory rejected" `Quick test_too_small_memory;
    QCheck_alcotest.to_alcotest prop_pd_of_block_constant_within_page;
  ]
