let machine ?(ncpus = 4) ?(memory_words = 131072) () =
  Sim.Machine.create
    (Sim.Config.make ~ncpus ~memory_words
       ~geometry:{ Sim.Geometry.default with cache_lines = 0 }
       ())

let on_cpu m f =
  let r = ref None in
  Sim.Machine.run m [| (fun _ -> r := Some (f ())) |];
  Option.get !r

let test_roundtrip () =
  let m = machine () in
  let mk = Baseline.Mk.create m in
  on_cpu m (fun () ->
      let a = Baseline.Mk.alloc mk ~bytes:100 in
      Alcotest.(check bool) "allocated" true (a <> 0);
      Baseline.Mk.free mk ~addr:a;
      let b = Baseline.Mk.alloc mk ~bytes:100 in
      Alcotest.(check int) "LIFO reuse" a b)

let test_free_recovers_size () =
  (* MK's free takes no size: blocks of different classes freed in any
     order land back on the right freelists. *)
  let m = machine () in
  let mk = Baseline.Mk.create m in
  on_cpu m (fun () ->
      let a16 = Baseline.Mk.alloc mk ~bytes:16 in
      let a256 = Baseline.Mk.alloc mk ~bytes:256 in
      Baseline.Mk.free mk ~addr:a16;
      Baseline.Mk.free mk ~addr:a256;
      let b256 = Baseline.Mk.alloc mk ~bytes:256 in
      let b16 = Baseline.Mk.alloc mk ~bytes:16 in
      Alcotest.(check int) "256 reused" a256 b256;
      Alcotest.(check int) "16 reused" a16 b16)

let test_page_carving () =
  let m = machine () in
  let mk = Baseline.Mk.create m in
  on_cpu m (fun () ->
      (* 256 blocks of 16B fit in one page; the 257th needs another. *)
      let blocks = List.init 257 (fun _ -> Baseline.Mk.alloc mk ~bytes:16) in
      Alcotest.(check int) "all allocated" 257
        (List.length (List.filter (fun a -> a <> 0) blocks));
      let pages =
        List.sort_uniq compare (List.map (fun a -> a lsr 10) blocks)
      in
      Alcotest.(check int) "two pages carved" 2 (List.length pages))

let test_oversize_rejected () =
  let m = machine () in
  let mk = Baseline.Mk.create m in
  let a = on_cpu m (fun () -> Baseline.Mk.alloc mk ~bytes:8192) in
  Alcotest.(check int) "larger than max class" 0 a

let test_no_coalescing_wedges_sweep () =
  (* The paper: "an allocator that does no coalescing would fail to
     complete this benchmark, having permanently fragmented all
     available memory into the smallest possible blocks." *)
  let m = machine ~memory_words:65536 () in
  let mk = Baseline.Mk.create m in
  let second_size = ref (-1) in
  on_cpu m (fun () ->
      let rec fill acc =
        let a = Baseline.Mk.alloc mk ~bytes:16 in
        if a = 0 then acc else fill (a :: acc)
      in
      let all16 = fill [] in
      List.iter (fun a -> Baseline.Mk.free mk ~addr:a) all16;
      (* Everything is free again, but fragmented into 16-byte lists:
         a 4096-byte request must fail. *)
      second_size := Baseline.Mk.alloc mk ~bytes:4096);
  Alcotest.(check int) "wedged after first size" 0 !second_size

let test_multicpu_exclusion () =
  let m = machine ~ncpus:4 () in
  let mk = Baseline.Mk.create m in
  let per_cpu = 100 in
  let results = Array.make 4 [] in
  Sim.Machine.run_symmetric m ~ncpus:4 (fun cpu ->
      let mine = ref [] in
      for _ = 1 to per_cpu do
        let a = Baseline.Mk.alloc mk ~bytes:64 in
        assert (a <> 0);
        mine := a :: !mine
      done;
      results.(cpu) <- !mine);
  let all = Array.to_list results |> List.concat in
  Alcotest.(check int) "no block issued twice" (4 * per_cpu)
    (List.length (List.sort_uniq compare all))

let prop_disjoint_blocks =
  QCheck.Test.make ~name:"mk live blocks disjoint" ~count:40
    QCheck.(small_list (pair bool (int_range 1 4096)))
    (fun ops ->
      let m = machine () in
      let mk = Baseline.Mk.create m in
      let ok = ref true in
      on_cpu m (fun () ->
          let live = ref [] in
          List.iter
            (fun (is_alloc, bytes) ->
              if is_alloc then begin
                let a = Baseline.Mk.alloc mk ~bytes in
                if a <> 0 then begin
                  let words = ((bytes + 15) / 16 * 16) / 4 in
                  let words =
                    (* round up to the actual power-of-two class *)
                    let rec p2 w = if w >= words then w else p2 (2 * w) in
                    p2 4
                  in
                  List.iter
                    (fun (lo, hi) ->
                      if not (a + words <= lo || hi <= a) then ok := false)
                    !live;
                  live := (a, a + words) :: !live
                end
              end
              else
                match !live with
                | (lo, _) :: rest ->
                    live := rest;
                    Baseline.Mk.free mk ~addr:lo
                | [] -> ())
            ops);
      !ok)

let suite =
  [
    Alcotest.test_case "alloc/free roundtrip (LIFO)" `Quick test_roundtrip;
    Alcotest.test_case "free recovers size from kmemsizes" `Quick
      test_free_recovers_size;
    Alcotest.test_case "page carving" `Quick test_page_carving;
    Alcotest.test_case "oversize rejected" `Quick test_oversize_rejected;
    Alcotest.test_case "no coalescing: sweep wedges" `Quick
      test_no_coalescing_wedges_sweep;
    Alcotest.test_case "multi-CPU mutual exclusion" `Quick
      test_multicpu_exclusion;
    QCheck_alcotest.to_alcotest prop_disjoint_blocks;
  ]
