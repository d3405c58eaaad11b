open Dlm

let fixture ?(ncpus = 2) () =
  let m =
    Sim.Machine.create
      (Sim.Config.make ~ncpus ~memory_words:131072
         ~geometry:{ Sim.Geometry.default with cache_lines = 0 }
         ())
  in
  let a = Baseline.Allocator.create Baseline.Allocator.Newkma m in
  (m, a)

let on_cpu m f =
  let r = ref None in
  Sim.Machine.run m [| (fun _ -> r := Some (f ())) |];
  Option.get !r

let all_modes = Lockmgr.[| NL; CR; CW; PR; PW; EX |]
let compatible = Lockmgr.compatible_oracle

let test_compat_matrix () =
  (* Spot-check the canonical entries. *)
  Alcotest.(check bool) "NL vs EX" true (compatible Lockmgr.NL Lockmgr.EX);
  Alcotest.(check bool) "CR vs PW" true (compatible Lockmgr.CR Lockmgr.PW);
  Alcotest.(check bool) "CR vs EX" false (compatible Lockmgr.CR Lockmgr.EX);
  Alcotest.(check bool) "PR vs PR" true (compatible Lockmgr.PR Lockmgr.PR);
  Alcotest.(check bool) "PR vs PW" false (compatible Lockmgr.PR Lockmgr.PW);
  Alcotest.(check bool) "EX vs EX" false (compatible Lockmgr.EX Lockmgr.EX);
  (* Symmetry. *)
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          Alcotest.(check bool) "symmetric" (compatible a b) (compatible b a))
        all_modes)
    all_modes

let test_grant_and_release () =
  let m, a = fixture () in
  on_cpu m (fun () ->
      let d = Option.get (Lockmgr.create a) in
      let l1 = Lockmgr.try_lock d ~resource:7 ~mode:Lockmgr.PR ~client:0 in
      Alcotest.(check bool) "granted" true (l1 <> 0);
      Alcotest.(check int) "one resource" 1 (Lockmgr.resources_oracle d);
      let l2 = Lockmgr.try_lock d ~resource:7 ~mode:Lockmgr.PR ~client:1 in
      Alcotest.(check bool) "shared read granted" true (l2 <> 0);
      Lockmgr.unlock d l1;
      Lockmgr.unlock d l2;
      Alcotest.(check int) "resource reclaimed" 0
        (Lockmgr.resources_oracle d);
      Alcotest.(check int) "no locks" 0 (Lockmgr.locks_oracle d))

let test_try_lock_never_waits () =
  let m, a = fixture () in
  on_cpu m (fun () ->
      let d = Option.get (Lockmgr.create a) in
      let ex = Lockmgr.try_lock d ~resource:3 ~mode:Lockmgr.EX ~client:0 in
      let p = Lockmgr.try_lock d ~resource:3 ~mode:Lockmgr.PR ~client:1 in
      Alcotest.(check int) "rejected immediately" 0 p;
      Alcotest.(check int) "only the EX lock exists" 1
        (Lockmgr.locks_oracle d);
      Lockmgr.unlock d ex;
      (* A failed probe against a fresh resource id must not leave a
         stray resource block behind. *)
      Alcotest.(check int) "no resources" 0 (Lockmgr.resources_oracle d))

let test_multicpu_exclusive_counts () =
  (* Four CPUs fight over a handful of resources with EX locks; the
     bucket spinlocks must keep the grant counts coherent: at the end
     everything unlocks and the table is empty. *)
  let m, a = fixture ~ncpus:4 () in
  let d_cell = ref None in
  Sim.Machine.run m
    (Array.init 4 (fun _ cpu ->
         if cpu = 0 then begin
           d_cell := Lockmgr.create a;
           Sim.Machine.write 16 1
         end
         else
           while Sim.Machine.read 16 = 0 do
             Sim.Machine.spin_pause ()
           done;
         let d = Option.get !d_cell in
         for i = 1 to 100 do
           let r = i mod 5 in
           match Lockmgr.try_lock d ~resource:r ~mode:Lockmgr.EX ~client:cpu with
           | 0 -> ()
           | lkb -> Lockmgr.unlock d lkb
         done));
  let d = Option.get !d_cell in
  Alcotest.(check int) "no locks leak" 0 (Lockmgr.locks_oracle d);
  Alcotest.(check int) "no resources leak" 0 (Lockmgr.resources_oracle d)

(* Property: any sequence of grant/unlock on a single CPU leaves the
   manager empty, and granted sets are always mutually compatible. *)
let prop_granted_always_compatible =
  QCheck.Test.make ~name:"granted locks pairwise compatible" ~count:30
    QCheck.(small_list (pair (int_bound 3) (int_bound 5)))
    (fun ops ->
      let m, a = fixture () in
      on_cpu m (fun () ->
          let d = Option.get (Lockmgr.create a) in
          let granted = Hashtbl.create 16 in
          let ok = ref true in
          List.iteri
            (fun i (resource, mode_i) ->
              let mode = all_modes.(mode_i) in
              match Lockmgr.try_lock d ~resource ~mode ~client:0 with
              | 0 ->
                  (* Rejection must mean a real incompatibility. *)
                  let conflicts =
                    Hashtbl.fold
                      (fun _ (r, m', _) acc ->
                        acc
                        || (r = resource && not (compatible mode m')))
                      granted false
                  in
                  if not conflicts then ok := false
              | lkb ->
                  Hashtbl.iter
                    (fun _ (r, m', _) ->
                      if r = resource && not (compatible mode m')
                      then ok := false)
                    granted;
                  Hashtbl.add granted i (resource, mode, lkb))
            ops;
          (* Everything we hold is accounted for; unlocking drains. *)
          if Lockmgr.locks_oracle d <> Hashtbl.length granted then ok := false;
          Hashtbl.iter (fun _ (_, _, lkb) -> Lockmgr.unlock d lkb) granted;
          !ok && Lockmgr.locks_oracle d = 0 && Lockmgr.resources_oracle d = 0))

let suite =
  [
    Alcotest.test_case "compatibility matrix" `Quick test_compat_matrix;
    Alcotest.test_case "grant and release" `Quick test_grant_and_release;
    Alcotest.test_case "try_lock never waits nor leaks" `Quick
      test_try_lock_never_waits;
    Alcotest.test_case "multi-CPU EX storm stays coherent" `Quick
      test_multicpu_exclusive_counts;
    QCheck_alcotest.to_alcotest prop_granted_always_compatible;
  ]
