(* A three-stage STREAMS pipeline across three simulated CPUs — the
   protocol-stack workload that motivated the paper's buffer allocator:
   a driver CPU allocates messages (allocb), a protocol CPU transforms
   them, and a consumer CPU frees them.  Every message crosses CPUs, so
   freed buffers flow home through the allocator's global layer.

     dune exec examples/streams_pipeline.exe *)

let npackets = 400

let () =
  let machine = Sim.Machine.create (Workload.Rig.paper_config ~ncpus:3 ()) in
  let alloc = Baseline.Allocator.create Baseline.Allocator.Cookie machine in
  let buf = Streams.Buf.create alloc in
  let q01 = ref None and q12 = ref None in
  let delivered = ref 0 and bytes_moved = ref 0 in
  Sim.Machine.run machine
    [|
      (fun _ ->
        (* Stage 0 — driver: receive "packets" and push them upstream.
           Builds the queues and signals readiness on a scratch word. *)
        q01 := Streams.Squeue.create buf;
        q12 := Streams.Squeue.create buf;
        Sim.Machine.write 16 1;
        let q = Option.get !q01 in
        for seq = 1 to npackets do
          let mb = Streams.Buf.allocb buf ~bytes:256 in
          assert (mb <> 0);
          Streams.Buf.put_byte_word buf mb seq;
          for _ = 1 to 16 do
            Streams.Buf.put_byte_word buf mb 0xDA7A
          done;
          Streams.Squeue.putq q mb
        done);
      (fun _ ->
        (* Stage 1 — protocol: prepend a header block (allocb + linkb)
           and forward.  Every other packet is also duplicated for
           "retransmission" and immediately dropped, exercising dupb's
           reference counting. *)
        while Sim.Machine.read 16 = 0 do
          Sim.Machine.spin_pause ()
        done;
        let qin = Option.get !q01 and qout = Option.get !q12 in
        let forwarded = ref 0 in
        while !forwarded < npackets do
          let mb = Streams.Squeue.getq qin in
          if mb = 0 then Sim.Machine.spin_pause ()
          else begin
            let hdr = Streams.Buf.allocb buf ~bytes:32 in
            assert (hdr <> 0);
            Streams.Buf.put_byte_word buf hdr 0x4EAD;
            Streams.Buf.linkb buf hdr mb;
            if !forwarded mod 2 = 0 then begin
              let dup = Streams.Buf.dupb buf mb in
              if dup <> 0 then Streams.Buf.freeb buf dup
            end;
            Streams.Squeue.putq qout hdr;
            incr forwarded
          end
        done);
      (fun _ ->
        (* Stage 2 — consumer: account the payload and free the whole
           message chain. *)
        while Sim.Machine.read 16 = 0 do
          Sim.Machine.spin_pause ()
        done;
        let qin = Option.get !q12 in
        while !delivered < npackets do
          let mb = Streams.Squeue.getq qin in
          if mb = 0 then Sim.Machine.spin_pause ()
          else begin
            bytes_moved := !bytes_moved + Streams.Buf.msgdsize buf mb;
            Streams.Buf.freemsg buf mb;
            incr delivered
          end
        done);
    |];
  let cfg = Sim.Machine.config machine in
  let cycles = Sim.Machine.elapsed machine in
  Printf.printf "pipeline delivered %d packets, %d payload bytes\n"
    !delivered !bytes_moved;
  Printf.printf "%.0f packets/s at %d MHz (%d cycles)\n"
    (float_of_int !delivered /. Sim.Config.seconds_of_cycles cfg cycles)
    Sim.Config.mhz cycles
