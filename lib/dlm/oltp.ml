open Workload

type result = {
  ncpus : int;
  transactions : int;
  grants : int;
  rejects : int;
  cycles : int;
}

let mode_mix =
  [| (50, Lockmgr.PR); (20, Lockmgr.CR); (15, Lockmgr.PW); (10, Lockmgr.EX);
     (5, Lockmgr.CW) |]

(* Transaction scratch records, as the paper's lock manager tracks
   requests and ownership: a 512-byte request record, small per-lock
   annotations, and 256-byte lock-request messages passed to the
   resource-master CPU (the cross-CPU flow the global layer exists
   for). *)
let tx_record_bytes = 512
let note_bytes = 48
let msg_bytes = 256

(* Per-CPU incoming-message ring, allocated from the allocator itself:
   a lock (rings have multiple producers), head and tail counters, then
   slots. *)
let ring_slots = 32
let ring_bytes = 4096

let ring_lock ring = ring
let ring_head ring = ring + 1
let ring_tail ring = ring + 2
let ring_slot ring i = ring + 16 + (i mod ring_slots)

let with_ring ring f =
  (* Jittered test-and-set; see Sim.Spinlock.with_lock. *)
  ignore (Sim.Machine.spin_cas (ring_lock ring) ~expected:0 ~desired:1);
  let v = f () in
  Sim.Machine.write (ring_lock ring) 0;
  v

let run ~kmem ~ncpus ~transactions_per_cpu ?(resources = 4096) ?(seed = 11)
    () =
  let m = Kma.Kmem.machine kmem in
  let a = Baseline.Allocator.of_kmem kmem in
  let grants = Array.make ncpus 0 in
  let rejects = Array.make ncpus 0 in
  let txs = Array.make ncpus 0 in
  let root = Prng.create ~seed in
  let rngs = Array.init ncpus (fun _ -> Prng.split root) in
  let dlm_cell = ref None in
  let rings = Array.make ncpus 0 in
  Sim.Machine.run m
    (Array.init ncpus (fun _ cpu ->
         (* CPU 0 builds the lock manager; everyone allocates their
            inbound ring, publishes it, and waits for the full set. *)
         if cpu = 0 then begin
           match Lockmgr.create a with
           | Some d -> dlm_cell := Some d
           | None -> raise Kma.Kmem.Kmem_exhausted
         end;
         let ring = a.Baseline.Allocator.alloc ~bytes:ring_bytes in
         if ring = 0 then raise Kma.Kmem.Kmem_exhausted;
         Sim.Machine.write (ring_lock ring) 0;
         Sim.Machine.write (ring_head ring) 0;
         Sim.Machine.write (ring_tail ring) 0;
         rings.(cpu) <- ring;
         (* Handshake: count ready CPUs in a scratch word. *)
         ignore (Sim.Machine.fetch_add 16 1);
         while Sim.Machine.read 16 < ncpus do
           Sim.Machine.spin_pause ()
         done;
         let d = Option.get !dlm_cell in
         let rng = rngs.(cpu) in
         (* Deferred frees: batches retired a few transactions later,
            so the live set oscillates past the per-CPU cache bound. *)
         let deferred = Queue.create () in
         let drain_deferred ~now =
           let rec go () =
             match Queue.peek_opt deferred with
             | Some (due, batch) when due <= now ->
                 ignore (Queue.pop deferred);
                 List.iter
                   (fun (addr, bytes) ->
                     a.Baseline.Allocator.free ~addr ~bytes)
                   batch;
                 go ()
             | Some _ | None -> ()
           in
           go ()
         in
         (* Consume lock-request messages sent by other CPUs: the
            cross-CPU free path. *)
         let my_ring = rings.(cpu) in
         let consume_messages () =
           let pending =
             with_ring my_ring (fun () ->
                 let head = Sim.Machine.read (ring_head my_ring) in
                 let tail = Sim.Machine.read (ring_tail my_ring) in
                 let msgs = ref [] in
                 for i = tail to head - 1 do
                   msgs := Sim.Machine.read (ring_slot my_ring i) :: !msgs
                 done;
                 if head > tail then
                   Sim.Machine.write (ring_tail my_ring) head;
                 !msgs)
           in
           List.iter
             (fun addr -> a.Baseline.Allocator.free ~addr ~bytes:msg_bytes)
             pending
         in
         let send_message ~dst =
           let msg = a.Baseline.Allocator.alloc ~bytes:msg_bytes in
           if msg <> 0 then begin
             Sim.Machine.write msg cpu;
             let ring = rings.(dst) in
             let accepted =
               with_ring ring (fun () ->
                   let head = Sim.Machine.read (ring_head ring) in
                   let tail = Sim.Machine.read (ring_tail ring) in
                   if head - tail >= ring_slots then false
                   else begin
                     Sim.Machine.write (ring_slot ring head) msg;
                     Sim.Machine.write (ring_head ring) (head + 1);
                     true
                   end)
             in
             (* Ring full: the request is serviced locally. *)
             if not accepted then
               a.Baseline.Allocator.free ~addr:msg ~bytes:msg_bytes
           end
         in
         for tx_i = 1 to transactions_per_cpu do
           drain_deferred ~now:tx_i;
           consume_messages ();
           (* A transaction journals 1-3 request records. *)
           let ntx = 1 + Prng.int rng ~bound:3 in
           let txrecs =
             List.init ntx (fun _ ->
                 a.Baseline.Allocator.alloc ~bytes:tx_record_bytes)
           in
           let nlocks = 2 + Prng.int rng ~bound:4 in
           let held = ref [] in
           let batch = ref [] in
           for _ = 1 to nlocks do
             let resource = Prng.int rng ~bound:resources in
             let mode = Prng.weighted rng mode_mix in
             (* A remote resource master gets a lock-request message. *)
             if ncpus > 1 && Prng.int rng ~bound:100 < 50 then begin
               let dst = Prng.int rng ~bound:ncpus in
               if dst <> cpu then send_message ~dst
             end;
             match Lockmgr.try_lock d ~resource ~mode ~client:cpu with
             | 0 -> rejects.(cpu) <- rejects.(cpu) + 1
             | lkb ->
                 grants.(cpu) <- grants.(cpu) + 1;
                 (* Annotate the grant, as a real DLM records
                    ownership. *)
                 let note = a.Baseline.Allocator.alloc ~bytes:note_bytes in
                 if note <> 0 then begin
                   Sim.Machine.write note lkb;
                   Sim.Machine.write (note + 1) resource;
                   batch := (note, note_bytes) :: !batch
                 end;
                 held := lkb :: !held
           done;
           (* The transaction body touches its records. *)
           List.iter
             (fun tx ->
               if tx <> 0 then begin
                 for w = 0 to 15 do
                   Sim.Machine.write (tx + (w * 8)) w
                 done;
                 batch := (tx, tx_record_bytes) :: !batch
               end)
             txrecs;
           List.iter (fun lkb -> Lockmgr.unlock d lkb) !held;
           (* Retire this transaction's records a few transactions from
              now: the live set breathes. *)
           Queue.add (tx_i + 1 + Prng.int rng ~bound:16, !batch) deferred;
           txs.(cpu) <- txs.(cpu) + 1
         done;
         (* Wind down.  Nobody may free a ring while another CPU might
            still send into it: wait for every CPU to leave its
            transaction loop (second barrier on scratch word 17), then
            take the final messages and release the ring. *)
         ignore (Sim.Machine.fetch_add 17 1);
         while Sim.Machine.read 17 < ncpus do
           Sim.Machine.spin_pause ()
         done;
         drain_deferred ~now:max_int;
         consume_messages ();
         a.Baseline.Allocator.free ~addr:my_ring ~bytes:ring_bytes));
  {
    ncpus;
    transactions = Array.fold_left ( + ) 0 txs;
    grants = Array.fold_left ( + ) 0 grants;
    rejects = Array.fold_left ( + ) 0 rejects;
    cycles = Sim.Machine.elapsed m;
  }
