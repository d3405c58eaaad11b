(* Seeded inputs for the three workloads.  Everything either side of
   the benchmark executes is generated here, from the workload seed,
   before any clock starts: the simulated side receives trace event
   lists, the native side request scripts. *)

module T = Workload.Trace
module Prng = Workload.Prng

type workload = Local | Remote | Burst

let all = [ Local; Remote; Burst ]
let name = function Local -> "local" | Remote -> "remote" | Burst -> "burst"
let of_name s = List.find_opt (fun w -> name w = s) all

(* --- simulated side ------------------------------------------------ *)

type sim = {
  ncpus : int;
  memory_words : int;
  warm : T.t;  (* replayed before the counters are reset *)
  trace : T.t;  (* the timed replay *)
}

(* Merge per-CPU event sequences into one well-formed global order:
   round-robin over CPUs, holding back a free until its allocation has
   been emitted (replay only cares about each CPU's own order; the
   global order keeps [Trace.validate] honest). *)
let interleave per_cpu =
  let q = Array.map (fun l -> ref l) per_cpu in
  let live = Hashtbl.create 4096 in
  let out = ref [] in
  let left = ref (Array.fold_left (fun n l -> n + List.length l) 0 per_cpu) in
  while !left > 0 do
    let moved = ref false in
    Array.iter
      (fun r ->
        match !r with
        | (T.Alloc { id; _ } as e) :: tl ->
            Hashtbl.replace live id ();
            out := e :: !out;
            r := tl;
            decr left;
            moved := true
        | (T.Free { id; _ } as e) :: tl when Hashtbl.mem live id ->
            Hashtbl.remove live id;
            out := e :: !out;
            r := tl;
            decr left;
            moved := true
        | _ -> ())
      q;
    if not !moved then invalid_arg "Inputs.interleave: circular handoff"
  done;
  List.rev !out

let alloc cpu id bytes = T.Alloc { cpu; gap = 0; id; bytes }
let free cpu id = T.Free { cpu; gap = 0; id }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng ~bound:(i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* local: every CPU allocates 1-4 blocks of {64, 256, 1024} B and
   frees them itself, newest first. *)
let local_trace rng ~ncpus ~ops =
  let next = ref 0 in
  let per_cpu =
    Array.init ncpus (fun cpu ->
        let rng = Prng.split rng in
        let evs = ref [] and n = ref 0 in
        while !n < ops / ncpus do
          let k = 1 + Prng.int rng ~bound:4 in
          let ids = List.init k (fun _ -> incr next; !next) in
          List.iter
            (fun id ->
              evs := alloc cpu id (Prng.pick rng [| 64; 256; 1024 |]) :: !evs)
            ids;
          List.iter (fun id -> evs := free cpu id :: !evs) (List.rev ids);
          n := !n + (2 * k)
        done;
        List.rev !evs)
  in
  interleave per_cpu

(* remote: CPU 2p allocates blocks of {256, 1024} B that CPU 2p+1
   frees, in order, with zero think time.  A bounded ring gives the
   producer backpressure: after every [credit] frees the consumer
   allocates a 256 B credit block, and the producer frees credit j
   before it allocates block (j+2)*credit, so it runs at most
   2*credit blocks ahead.  Credits too are freed by the paired CPU. *)
let credit = 32

let remote_trace rng ~pairs ~ops =
  let next = ref 0 in
  let fresh () = incr next; !next in
  let per_cpu = Array.make (2 * pairs) [] in
  for p = 0 to pairs - 1 do
    let rng = Prng.split rng in
    let pc = 2 * p and cc = (2 * p) + 1 in
    let n = ops / pairs / 2 in
    let blocks = Array.init n (fun _ -> fresh ()) in
    let credits = Array.init (n / credit) (fun _ -> fresh ()) in
    let prod = ref [] and cons = ref [] and freed = ref 0 in
    for i = 0 to n - 1 do
      if i >= 2 * credit && i mod credit = 0 then begin
        prod := free pc credits.((i / credit) - 2) :: !prod;
        incr freed
      end;
      prod := alloc pc blocks.(i) (Prng.pick rng [| 256; 1024 |]) :: !prod;
      cons := free cc blocks.(i) :: !cons;
      if i mod credit = credit - 1 then
        cons := alloc cc credits.(i / credit) 256 :: !cons
    done;
    for j = !freed to Array.length credits - 1 do
      prod := free pc credits.(j) :: !prod
    done;
    per_cpu.(pc) <- List.rev !prod;
    per_cpu.(cc) <- List.rev !cons
  done;
  interleave per_cpu

(* burst: one CPU allocates bursts of 1-512 blocks, sizes uniform in
   a uniformly drawn octave of 32 B .. 16 KB (so one block in five
   spans pages and goes to the vmblk layer), then frees the burst in a
   shuffled order. *)
let burst_trace rng ~ops =
  let next = ref 0 and evs = ref [] and n = ref 0 in
  while !n < ops do
    let k = 1 + Prng.int rng ~bound:512 in
    let ids = Array.init k (fun _ -> incr next; !next) in
    Array.iter
      (fun id ->
        let e = 5 + Prng.int rng ~bound:9 in
        let bytes = (1 lsl e) + Prng.int rng ~bound:(1 lsl e) in
        evs := alloc 0 id bytes :: !evs)
      ids;
    shuffle rng ids;
    Array.iter (fun id -> evs := free 0 id :: !evs) ids;
    n := !n + (2 * k)
  done;
  List.rev !evs

let sim_trace w rng ~ops =
  match w with
  | Local -> local_trace rng ~ncpus:25 ~ops
  | Remote -> remote_trace rng ~pairs:12 ~ops
  | Burst -> burst_trace rng ~ops

(* Timed trace length per workload at [scale] 1.  [remote]'s lock
   convoys vary from seed to seed, so it replays the most events. *)
let sim_ops = function Local -> 100_000 | Remote -> 150_000 | Burst -> 200_000

let sim ?(scale = 1.) w ~seed =
  let rng = Prng.create ~seed in
  let ops = max 2_000 (int_of_float (scale *. float_of_int (sim_ops w))) in
  let warm = sim_trace w (Prng.split rng) ~ops:(max 1_000 (ops / 20)) in
  let trace = sim_trace w (Prng.split rng) ~ops in
  let ncpus = T.ncpus trace in
  { ncpus; memory_words = 4 * 1024 * 1024; warm; trace }

(* --- native side --------------------------------------------------- *)

type native = {
  workload : workload;
  mode : Objpool.Pool.mode;
  script : int array;
      (* objects per request (local), per producer request (remote) or
         per burst (burst), replayed cyclically *)
  order : int array;
      (* burst only: each burst's release permutation, concatenated in
         script order *)
}

(* Domains serving a round, the main domain included.  [local] has one
   client: with two, its throughput split between two speeds from run
   to run on a 2-vCPU host (see README.md, "Steadiness"). *)
let domains = function Remote -> 2 | Local | Burst -> 1

let native w ~seed =
  let rng = Prng.create ~seed:(seed lxor 0x5eed) in
  match w with
  | Local | Remote ->
      let mode = if w = Remote then `Adaptive else `Fixed in
      { workload = w; mode; order = [||];
        script = Array.init 4096 (fun _ -> 1 + Prng.int rng ~bound:4) }
  | Burst ->
      let bursts = Array.init 1024 (fun _ -> 1 + Prng.int rng ~bound:2048) in
      let order =
        Array.concat
          (Array.to_list
             (Array.map
                (fun k ->
                  let p = Array.init k Fun.id in
                  shuffle rng p;
                  p)
                bursts))
      in
      { workload = w; mode = `Fixed; script = bursts; order }
