open Streams

let fixture ?(ncpus = 2) () =
  let m =
    Sim.Machine.create
      (Sim.Config.make ~ncpus ~memory_words:131072
         ~geometry:{ Sim.Geometry.default with cache_lines = 0 }
         ())
  in
  let a = Baseline.Allocator.create Baseline.Allocator.Newkma m in
  (m, Buf.create a)

let on_cpu m f =
  let r = ref None in
  Sim.Machine.run m [| (fun _ -> r := Some (f ())) |];
  Option.get !r

(* The data words between a block's read and write pointers. *)
let data mblk =
  let rptr = Sim.Machine.read (mblk + Msg.b_rptr) in
  let wptr = Sim.Machine.read (mblk + Msg.b_wptr) in
  List.init (wptr - rptr) (fun i -> Sim.Machine.read (rptr + i))

let test_allocb_structure () =
  let m, buf = fixture () in
  on_cpu m (fun () ->
      let mb = Buf.allocb buf ~bytes:100 in
      Alcotest.(check bool) "allocated" true (mb <> 0);
      let dblk = Sim.Machine.read (mb + Msg.b_datap) in
      let base = Sim.Machine.read (dblk + Msg.db_base) in
      let lim = Sim.Machine.read (dblk + Msg.db_lim) in
      Alcotest.(check int) "rptr at base" base
        (Sim.Machine.read (mb + Msg.b_rptr));
      Alcotest.(check int) "wptr at base" base
        (Sim.Machine.read (mb + Msg.b_wptr));
      Alcotest.(check int) "capacity rounded to words" 25 (lim - base);
      Alcotest.(check int) "refcount 1" 1
        (Sim.Machine.read (dblk + Msg.db_ref));
      Alcotest.(check int) "type M_DATA" Msg.m_data
        (Sim.Machine.read (dblk + Msg.db_type));
      Buf.freeb buf mb)

let test_alloc_free_balances () =
  let m, buf = fixture () in
  on_cpu m (fun () ->
      let msgs = List.init 50 (fun i -> Buf.allocb buf ~bytes:(64 + i)) in
      List.iter (fun mb -> Buf.freeb buf mb) msgs)
  (* Nothing to assert beyond no crash: the allocator's own suites
     check conservation; here we check freeb accepts every shape. *)

let test_data_roundtrip () =
  let m, buf = fixture () in
  let values =
    on_cpu m (fun () ->
        let mb = Buf.allocb buf ~bytes:64 in
        for i = 1 to 10 do
          Buf.put_byte_word buf mb (i * 3)
        done;
        let out = data mb in
        Buf.freeb buf mb;
        out)
  in
  Alcotest.(check (list int)) "FIFO data" (List.init 10 (fun i -> (i + 1) * 3))
    values

let test_msgdsize () =
  let m, buf = fixture () in
  let size =
    on_cpu m (fun () ->
        let a = Buf.allocb buf ~bytes:64 in
        let b = Buf.allocb buf ~bytes:64 in
        for _ = 1 to 5 do
          Buf.put_byte_word buf a 0
        done;
        for _ = 1 to 3 do
          Buf.put_byte_word buf b 0
        done;
        Buf.linkb buf a b;
        let s = Buf.msgdsize buf a in
        Buf.freemsg buf a;
        s)
  in
  Alcotest.(check int) "8 words of data" 32 size

let test_dupb_refcounting () =
  let m, buf = fixture () in
  on_cpu m (fun () ->
      let a = Buf.allocb buf ~bytes:64 in
      Buf.put_byte_word buf a 42;
      let b = Buf.dupb buf a in
      Alcotest.(check bool) "dup ok" true (b <> 0);
      let dblk = Sim.Machine.read (a + Msg.b_datap) in
      Alcotest.(check int) "shared dblk" dblk
        (Sim.Machine.read (b + Msg.b_datap));
      Alcotest.(check int) "ref 2" 2 (Sim.Machine.read (dblk + Msg.db_ref));
      (* Free the original; the duplicate still reads the data. *)
      Buf.freeb buf a;
      Alcotest.(check int) "ref 1" 1 (Sim.Machine.read (dblk + Msg.db_ref));
      Alcotest.(check (list int)) "data intact" [ 42 ] (data b);
      Buf.freeb buf b)

let test_allocb_failure_releases_partials () =
  (* A machine with almost no physical memory: allocb fails without
     leaking the partially-assembled message. *)
  let m =
    Sim.Machine.create
      (Sim.Config.make ~ncpus:1 ~memory_words:131072
         ~geometry:{ Sim.Geometry.default with cache_lines = 0 }
         ())
  in
  let params =
    Kma.Params.make ~vmblk_pages:16 ~phys_pages:1 ()
  in
  let kmem = Kma.Kmem.create m ~params () in
  let a =
    {
      Baseline.Allocator.name = "newkma";
      alloc =
        (fun ~bytes ->
          match Kma.Kmem.try_alloc kmem ~bytes with
          | Some x -> x
          | None -> 0);
      free = (fun ~addr ~bytes -> Kma.Kmem.free kmem ~addr ~bytes);
    }
  in
  let buf = Buf.create a in
  on_cpu m (fun () ->
      (* Allocate 2 KiB messages until the one physical page budget is
         gone: some succeed, then allocb fails cleanly (releasing its
         partial mblk/dblk) and everything frees back. *)
      let rec fill acc =
        let mb = Buf.allocb buf ~bytes:2048 in
        if mb = 0 then acc else fill (mb :: acc)
      in
      let msgs = fill [] in
      Alcotest.(check bool) "eventually fails" true (List.length msgs < 100);
      List.iter (fun mb -> Buf.freeb buf mb) msgs)

let prop_alloc_free_any_size =
  QCheck.Test.make ~name:"allocb/freeb across sizes" ~count:30
    QCheck.(small_list (int_range 1 2048))
    (fun sizes ->
      let m, buf = fixture () in
      on_cpu m (fun () ->
          List.for_all
            (fun bytes ->
              let mb = Buf.allocb buf ~bytes in
              if mb = 0 then false
              else begin
                Buf.freeb buf mb;
                true
              end)
            sizes))

let test_put_checks_the_limit () =
  let m, buf = fixture () in
  match
    on_cpu m (fun () ->
        let mb = Buf.allocb buf ~bytes:64 in
        let dblk = Sim.Machine.read (mb + Msg.b_datap) in
        let room =
          Sim.Machine.read (dblk + Msg.db_lim)
          - Sim.Machine.read (mb + Msg.b_wptr)
        in
        for _ = 0 to room do
          Buf.put_byte_word buf mb 0
        done)
  with
  | () -> Alcotest.fail "a write past db_lim passed its check"
  | exception Assert_failure (file, _, _) ->
      Alcotest.(check string) "put_byte_word's check" "lib/streams/buf.ml" file

let suite =
  [
    Alcotest.test_case "allocb builds the three structures" `Quick
      test_allocb_structure;
    Alcotest.test_case "freeb accepts every shape" `Quick
      test_alloc_free_balances;
    Alcotest.test_case "data roundtrip" `Quick test_data_roundtrip;
    Alcotest.test_case "put_byte_word checks the limit" `Quick
      test_put_checks_the_limit;
    Alcotest.test_case "msgdsize over chains" `Quick test_msgdsize;
    Alcotest.test_case "dupb reference counting" `Quick
      test_dupb_refcounting;
    Alcotest.test_case "allocb failure releases partials" `Quick
      test_allocb_failure_releases_partials;
    QCheck_alcotest.to_alcotest prop_alloc_free_any_size;
  ]
