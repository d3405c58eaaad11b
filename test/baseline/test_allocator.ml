(* The uniform handle: each of the four allocators boots in a fresh
   machine and survives a mixed workload through the common
   interface. *)

let machine () =
  Sim.Machine.create
    (Sim.Config.make ~ncpus:2 ~memory_words:131072 ~uncached_words:512 ())

let test_names () =
  Alcotest.(check (list string))
    "legend order"
    [ "cookie"; "newkma"; "mk"; "oldkma" ]
    (List.map Baseline.Allocator.name_of Baseline.Allocator.all)

let exercise which =
  let m = machine () in
  let a = Baseline.Allocator.create which m in
  let ok = ref true in
  Sim.Machine.run m
    [|
      (fun _ ->
        let live = ref [] in
        for i = 1 to 200 do
          let bytes = 16 lsl (i mod 5) in
          if i mod 3 = 0 then (
            match !live with
            | (addr, b) :: rest ->
                live := rest;
                a.Baseline.Allocator.free ~addr ~bytes:b
            | [] -> ())
          else begin
            let addr = a.Baseline.Allocator.alloc ~bytes in
            if addr = 0 then ok := false else live := (addr, bytes) :: !live
          end
        done;
        List.iter
          (fun (addr, b) -> a.Baseline.Allocator.free ~addr ~bytes:b)
          !live);
    |];
  Alcotest.(check bool)
    (Baseline.Allocator.name_of which ^ " allocates throughout")
    true !ok

let suite =
  Alcotest.test_case "names and legend order" `Quick test_names
  :: List.map
       (fun w ->
         Alcotest.test_case
           ("mixed workload via handle: " ^ Baseline.Allocator.name_of w)
           `Quick
           (fun () -> exercise w))
       (Baseline.Allocator.all @ [ Baseline.Allocator.Lazybuddy ])
