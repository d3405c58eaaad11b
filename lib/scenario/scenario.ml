module Pathology = Pathology

type t = {
  name : string;
  summary : string;
  target : string option;
  ncpus : int;
  default_seed : int;
  generate : seed:int -> Workload.Trace.t;
}

(* Small imperative trace builder: ids are dense and allocated in event
   order, so every generator is deterministic given its seed. *)
module B = struct
  type b = { mutable evs : Workload.Trace.event list; mutable next : int }

  let make () = { evs = []; next = 0 }

  let alloc b ~cpu ~gap ~bytes =
    let id = b.next in
    b.next <- id + 1;
    b.evs <- Workload.Trace.Alloc { cpu; gap; id; bytes } :: b.evs;
    id

  let free b ~cpu ~gap id =
    b.evs <- Workload.Trace.Free { cpu; gap; id } :: b.evs

  let trace b = List.rev b.evs
end

(* Best case: each CPU allocates and immediately frees one block, over
   and over.  After boot every operation is a per-CPU cache hit. *)
let gen_steady ~seed:_ =
  let b = B.make () in
  for _ = 1 to 1200 do
    let ids = Array.init 2 (fun cpu -> B.alloc b ~cpu ~gap:8 ~bytes:256) in
    Array.iteri (fun cpu id -> B.free b ~cpu ~gap:8 id) ids
  done;
  B.trace b

(* RPC churn: request/response pairs with short lifetimes; an eighth of
   the responses are freed by the next CPU over (the handoff a reply
   queue produces). *)
let gen_rpc ~seed =
  let rng = Workload.Prng.create ~seed in
  let b = B.make () in
  for _round = 1 to 400 do
    for cpu = 0 to 3 do
      let req = B.alloc b ~cpu ~gap:(4 + Workload.Prng.int rng ~bound:8) ~bytes:128 in
      let resp = B.alloc b ~cpu ~gap:2 ~bytes:512 in
      B.free b ~cpu ~gap:(6 + Workload.Prng.int rng ~bound:10) req;
      let fcpu = if Workload.Prng.int rng ~bound:8 = 0 then (cpu + 1) mod 4 else cpu in
      B.free b ~cpu:fcpu ~gap:2 resp
    done
  done;
  B.trace b

(* Diurnal traffic: three day-bursts of fast mixed-size allocation, each
   drained at a relaxed pace and followed by a long quiet night. *)
let gen_bursty ~seed =
  let rng = Workload.Prng.create ~seed in
  let b = B.make () in
  let sizes = [| 64; 128; 256; 512; 1024 |] in
  for _day = 1 to 3 do
    let live = ref [] in
    for _ = 1 to 280 do
      for cpu = 0 to 1 do
        let bytes = sizes.(Workload.Prng.int rng ~bound:(Array.length sizes)) in
        let id = B.alloc b ~cpu ~gap:(Workload.Prng.int rng ~bound:3) ~bytes in
        live := (cpu, id) :: !live
      done
    done;
    List.iter
      (fun (cpu, id) -> B.free b ~cpu ~gap:(20 + Workload.Prng.int rng ~bound:20) id)
      !live;
    let idle = B.alloc b ~cpu:0 ~gap:40_000 ~bytes:64 in
    B.free b ~cpu:0 ~gap:40_000 idle
  done;
  B.trace b

(* Long-tail lifetimes: most blocks die immediately, a seeded 12% live
   to the end of the run. *)
let gen_long_tail ~seed =
  let rng = Workload.Prng.create ~seed in
  let b = B.make () in
  let sizes = [| 32; 64; 128; 256 |] in
  let old = ref [] in
  for i = 1 to 1400 do
    let cpu = i land 1 in
    let bytes = sizes.(Workload.Prng.int rng ~bound:(Array.length sizes)) in
    let id = B.alloc b ~cpu ~gap:(Workload.Prng.int rng ~bound:6) ~bytes in
    if Workload.Prng.int rng ~bound:100 < 12 then old := (cpu, id) :: !old
    else B.free b ~cpu ~gap:(Workload.Prng.int rng ~bound:6) id
  done;
  List.iter (fun (cpu, id) -> B.free b ~cpu ~gap:2 id) (List.rev !old);
  B.trace b

(* Remote-free storm: two producer/consumer CPU pairs hammer one size
   class with zero think time; every block allocated on one CPU is freed
   on the other, so both pairs meet at the class's global-layer lock. *)
let gen_producer_consumer ~seed:_ =
  let b = B.make () in
  for _ = 1 to 1200 do
    List.iter
      (fun (p, c) ->
        let id = B.alloc b ~cpu:p ~gap:0 ~bytes:1024 in
        B.free b ~cpu:c ~gap:0 id)
      [ (0, 1); (2, 3) ]
  done;
  B.trace b

(* Fragmentation adversary: fill pages with small blocks, free all but
   one pinned survivor per page (id stride 13 < blocks per page), then
   keep a thin trickle of traffic running so the pinned pages are held
   across many analysis windows before the final release. *)
let gen_frag_adversary ~seed:_ =
  let b = B.make () in
  let n = 3000 in
  let ids = Array.init n (fun _ -> B.alloc b ~cpu:0 ~gap:0 ~bytes:256) in
  Array.iter (fun id -> if id mod 13 <> 0 then B.free b ~cpu:0 ~gap:0 id) ids;
  for _ = 1 to 120 do
    let x = B.alloc b ~cpu:0 ~gap:200 ~bytes:1024 in
    B.free b ~cpu:0 ~gap:200 x
  done;
  Array.iter (fun id -> if id mod 13 = 0 then B.free b ~cpu:0 ~gap:0 id) ids;
  B.trace b

(* Recorded scenario: run a distributed-lock-manager-shaped workload
   (transient request records plus a bounded window of longer-lived
   resource blocks per CPU) against a live newkma and record it through
   [Workload.Trace.record]; then skew a quarter of the frees to a
   different CPU, the DLM's remote-release pattern. *)
let gen_recorded_dlm ~seed =
  let m, a = Workload.Rig.fresh Baseline.Allocator.Newkma ~ncpus:4 () in
  let trace =
    Workload.Trace.record a (fun wrapped ->
        Sim.Machine.run_symmetric m ~ncpus:4 (fun cpu ->
            let rng = Workload.Prng.create ~seed:(seed + (31 * cpu)) in
            let live = Queue.create () in
            for _tx = 1 to 160 do
              let req = wrapped.Baseline.Allocator.alloc ~bytes:64 in
              let res = wrapped.Baseline.Allocator.alloc ~bytes:128 in
              Sim.Machine.work (30 + Workload.Prng.int rng ~bound:50);
              if req <> 0 then
                wrapped.Baseline.Allocator.free ~addr:req ~bytes:64;
              if res <> 0 then Queue.add res live;
              if Queue.length live > 8 then begin
                let oldest = Queue.pop live in
                wrapped.Baseline.Allocator.free ~addr:oldest ~bytes:128
              end
            done;
            Queue.iter
              (fun addr -> wrapped.Baseline.Allocator.free ~addr ~bytes:128)
              live))
  in
  Workload.Trace.skew_frees ~seed ~fraction:0.25 trace

let all =
  [
    {
      name = "steady";
      summary = "best case: per-CPU alloc/free pairs, all cache hits";
      target = None;
      ncpus = 2;
      default_seed = 1;
      generate = gen_steady;
    };
    {
      name = "rpc";
      summary = "request/response churn with occasional cross-CPU frees";
      target = None;
      ncpus = 4;
      default_seed = 2;
      generate = gen_rpc;
    };
    {
      name = "bursty";
      summary = "diurnal bursts: fast mixed-size pileups, slow drains";
      target = Some "latency-tail";
      ncpus = 2;
      default_seed = 3;
      generate = gen_bursty;
    };
    {
      name = "long_tail";
      summary = "mostly-transient blocks with a 12% long-lived tail";
      target = None;
      ncpus = 2;
      default_seed = 4;
      generate = gen_long_tail;
    };
    {
      name = "producer_consumer";
      summary = "remote-free storm: two CPU pairs, every free cross-CPU";
      target = Some "lock-convoy";
      ncpus = 4;
      default_seed = 5;
      generate = gen_producer_consumer;
    };
    {
      name = "frag_adversary";
      summary = "pin one block per page, hold the pages across the run";
      target = Some "fragmentation";
      ncpus = 1;
      default_seed = 6;
      generate = gen_frag_adversary;
    };
    {
      name = "recorded_dlm";
      summary = "recorded DLM-shaped run with 25% of frees skewed remote";
      target = None;
      ncpus = 4;
      default_seed = 7;
      generate = gen_recorded_dlm;
    };
  ]

let names () = List.map (fun s -> s.name) all
