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

let test_fifo_order () =
  let m, buf = fixture () in
  let order =
    on_cpu m (fun () ->
        let q = Option.get (Squeue.create buf) in
        let tagged =
          List.init 5 (fun i ->
              let mb = Buf.allocb buf ~bytes:32 in
              Buf.put_byte_word buf mb i;
              mb)
        in
        List.iter (fun mb -> Squeue.putq q mb) tagged;
        let out =
          List.init 5 (fun _ ->
              let mb = Squeue.getq q in
              let v = Sim.Machine.read (Sim.Machine.read (mb + Msg.b_rptr)) in
              Buf.freeb buf mb;
              v)
        in
        Alcotest.(check int) "getq on empty" 0 (Squeue.getq q);
        out)
  in
  Alcotest.(check (list int)) "FIFO" [ 0; 1; 2; 3; 4 ] order

let test_cross_cpu_pipeline () =
  let m, buf = fixture ~ncpus:2 () in
  let n = 200 in
  let q = ref None in
  let received = ref 0 in
  Sim.Machine.run m
    [|
      (fun _ ->
        (* Producer: build the queue, signal, stream messages, then a
           zero-length terminator. *)
        q := Squeue.create buf;
        Sim.Machine.write 16 1;
        let q = Option.get !q in
        for i = 1 to n do
          let mb = Buf.allocb buf ~bytes:64 in
          Buf.put_byte_word buf mb i;
          Squeue.putq q mb
        done);
      (fun _ ->
        while Sim.Machine.read 16 = 0 do
          Sim.Machine.spin_pause ()
        done;
        let q = Option.get !q in
        while !received < n do
          let mb = Squeue.getq q in
          if mb = 0 then Sim.Machine.spin_pause ()
          else begin
            incr received;
            Buf.freeb buf mb
          end
        done);
    |];
  Alcotest.(check int) "all messages crossed CPUs" n !received

let suite =
  [
    Alcotest.test_case "putq/getq FIFO" `Quick test_fifo_order;
    Alcotest.test_case "cross-CPU pipeline" `Quick test_cross_cpu_pipeline;
  ]
