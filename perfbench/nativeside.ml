(* The native side: one [Objpool.Pool] of 256 B objects driven by the
   benchmark's own closed-loop clients.  The main domain is always a
   client (never an idle joiner): it serves [local] and [burst] alone,
   and is [remote]'s consumer beside one producer domain.

   A round creates the pool, spawns the producer if any, runs a
   warm-up, then a timed window; every domain flushes its magazine
   before it exits so the pool's counters balance.  Each request is
   timed from its first pool call to its last; waiting on the remote
   ring is outside that interval. *)

module Pool = Objpool.Pool
module Pstats = Objpool.Pstats

let obj_bytes = 256
let ctor () = Bytes.make obj_bytes '\000'

(* --- spans ---------------------------------------------------------- *)

let k_request = 0
let k_alloc = 1
let k_release = 2
let k_ctor = 3
let k_wait = 4

let kind_name =
  [| "client.request"; "pool.alloc"; "pool.release"; "pool.ctor"; "client.wait" |]

type tracer = {
  kind : int array;
  parent : int array;
  req : int array;
  t0 : int array;
  t1 : int array;
  mutable n : int;
  mutable cur : int;  (* the open pool span: a constructor call's parent *)
}

let span_cap = 1 lsl 17

(* Room a request may need (a 2048-object burst: two spans per object
   plus constructor calls); a domain stops the round before it runs
   out. *)
let span_margin = 8192

let tracer () =
  let z () = Array.make span_cap 0 in
  { kind = z (); parent = z (); req = z (); t0 = z (); t1 = z (); n = 0; cur = -1 }

let open_span tr ~kind ~parent ~req =
  let i = tr.n in
  if i >= span_cap then -1
  else begin
    tr.kind.(i) <- kind;
    tr.parent.(i) <- parent;
    tr.req.(i) <- req;
    tr.t0.(i) <- Clock.ns ();
    tr.n <- i + 1;
    i
  end

let close_span tr i = if i >= 0 then tr.t1.(i) <- Clock.ns ()

(* The constructor runs inside [Pool.alloc] on whichever domain
   missed; it finds that domain's tracer here. *)
let tracer_key : tracer option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let traced_ctor () =
  match !(Domain.DLS.get tracer_key) with
  | None -> ctor ()
  | Some tr ->
      let p = tr.cur in
      let i = open_span tr ~kind:k_ctor ~parent:p ~req:(if p >= 0 then tr.req.(p) else -1) in
      let x = ctor () in
      close_span tr i;
      x

(* --- clients -------------------------------------------------------- *)

(* Touch the main domain's slot now, so its allocation lands in no
   round's word count. *)
let () = ignore (Domain.DLS.get tracer_key)

type client = {
  hist : Lat.t;  (* request latency in the timed window, ns *)
  mutable ops : int;  (* pool calls in the timed window *)
  mutable reqs : int;
  mutable bad : int;  (* objects handed out live or released free *)
  mutable t_end : int;
  mutable words : float;  (* minor words allocated in the timed phase *)
  mutable tr : tracer option;  (* set for the timed window of a traced round *)
  armed : tracer option;  (* allocated before the window opens *)
}

let client ~traced =
  {
    hist = Lat.create (); ops = 0; reqs = 0; bad = 0; t_end = 0; words = 0.; tr = None;
    armed = (if traced then Some (tracer ()) else None);
  }

(* Byte 0 of every object marks it live; a pool that handed one object
   out twice, or took back a free one, shows up as a bad count. *)
let take pool c ~req ~parent =
  let x =
    match c.tr with
    | None -> Pool.alloc pool
    | Some tr ->
        let i = open_span tr ~kind:k_alloc ~parent ~req in
        tr.cur <- i;
        let x = Pool.alloc pool in
        close_span tr i;
        x
  in
  if Bytes.unsafe_get x 0 <> '\000' then c.bad <- c.bad + 1;
  Bytes.unsafe_set x 0 '\001';
  x

let give pool c x ~req ~parent =
  if Bytes.unsafe_get x 0 <> '\001' then c.bad <- c.bad + 1;
  Bytes.unsafe_set x 0 '\000';
  match c.tr with
  | None -> Pool.release pool x
  | Some tr ->
      let i = open_span tr ~kind:k_release ~parent ~req in
      Pool.release pool x;
      close_span tr i

let request_span c ~req =
  match c.tr with
  | None -> -1
  | Some tr -> open_span tr ~kind:k_request ~parent:(-1) ~req

let end_span c i = match c.tr with None -> () | Some tr -> close_span tr i

let full c = match c.tr with None -> false | Some tr -> tr.n > span_cap - span_margin

(* Round phases, published through one atomic: warm-up, timed, stop. *)
let warming = 0
let timed = 1
let stopping = 2

type shared = {
  pool : Bytes.t Pool.t;
  phase : int Atomic.t;
  window_ns : int;
  limit : int;  (* requests (bursts, on burst) after which the main domain stops *)
  mutable t_go : int;
}

let over sh ~served t = t - sh.t_go >= sh.window_ns || served >= sh.limit

(* A domain's timed phase: spans on (in a traced round) and its own
   minor words counted.  [Gc.minor_words] covers only the calling
   domain in OCaml 5.1, and [Gc.quick_stat]'s total moves in
   whole-minor-heap steps, so each domain counts itself and the round
   sums them after the join. *)
let start_timing c =
  c.tr <- c.armed;
  Domain.DLS.get tracer_key := c.armed;
  c.words <- -.Gc.minor_words ()

let stop_timing c = c.words <- c.words +. Gc.minor_words ()

(* The main domain opens the window once it has warmed up. *)
let open_window sh c =
  sh.t_go <- Clock.ns ();
  Atomic.set sh.phase timed;
  start_timing c

let warm_requests = 2_000

(* local: each request takes 1-4 objects and releases them, newest
   first. *)
let local_client sh c script =
  let objs = Array.make 4 Bytes.empty and j = ref 0 and seq = ref 0 in
  let request () =
    let k = script.(!j) in
    j := (!j + 1) mod Array.length script;
    let req = !seq in
    incr seq;
    let r = request_span c ~req in
    for i = 0 to k - 1 do
      objs.(i) <- take sh.pool c ~req ~parent:r
    done;
    for i = k - 1 downto 0 do
      give sh.pool c objs.(i) ~req ~parent:r
    done;
    end_span c r;
    2 * k
  in
  for _ = 1 to warm_requests do ignore (request ()) done;
  open_window sh c;
  let t = ref sh.t_go in
  while Atomic.get sh.phase = timed do
    let ops = request () in
    let t' = Clock.ns () in
    Lat.add c.hist (t' - !t);
    t := t';
    c.ops <- c.ops + ops;
    c.reqs <- c.reqs + 1;
    if over sh ~served:c.reqs t' || full c then Atomic.set sh.phase stopping
  done;
  stop_timing c;
  c.t_end <- !t

(* burst: the client takes a whole scripted burst of objects, then
   releases it in the burst's scripted order.  Every pool call is one
   request here (all of a burst's share its id): the burst as a whole
   only restates throughput, while single calls show what a depot
   refill, a constructor call or a collection adds to one caller.
   Every [sample]-th call is timed, so the clock reads stay a small
   part of the client's cost. *)
let sample = 8

let burst_client sh c bursts order =
  let offsets = Array.make (Array.length bursts) 0 in
  for b = 1 to Array.length bursts - 1 do
    offsets.(b) <- offsets.(b - 1) + bursts.(b - 1)
  done;
  let objs = Array.make (Array.fold_left max 1 bursts) Bytes.empty in
  let j = ref 0 and calls = ref 0 in
  let start ~timing =
    let sampled = timing && !calls land (sample - 1) = 0 in
    incr calls;
    if sampled then Clock.ns () else -1
  in
  let stop t0 =
    if t0 >= 0 then begin
      Lat.add c.hist (Clock.ns () - t0);
      c.reqs <- c.reqs + 1
    end
  in
  let burst ~timing =
    let b = !j in
    j := (b + 1) mod Array.length bursts;
    let k = bursts.(b) and off = offsets.(b) in
    for i = 0 to k - 1 do
      let r = request_span c ~req:b in
      let t0 = start ~timing in
      objs.(i) <- take sh.pool c ~req:b ~parent:r;
      stop t0;
      end_span c r
    done;
    for i = 0 to k - 1 do
      let r = request_span c ~req:b in
      let t0 = start ~timing in
      give sh.pool c objs.(order.(off + i)) ~req:b ~parent:r;
      stop t0;
      end_span c r
    done;
    c.ops <- c.ops + (2 * k)
  in
  for _ = 1 to Array.length bursts / 16 do burst ~timing:false done;
  c.ops <- 0;
  open_window sh c;
  let served = ref 0 in
  while Atomic.get sh.phase = timed do
    burst ~timing:true;
    incr served;
    let t = Clock.ns () in
    c.t_end <- t;
    if over sh ~served:!served t || full c then Atomic.set sh.phase stopping
  done;
  stop_timing c

(* --- remote: a bounded one-way ring ----------------------------------

   The producer domain allocates each request's 1-4 objects and
   publishes them as one group with a single store of [tail]; the main
   domain takes a group and releases its objects.  Each side times its
   half of a request without the ring wait, which goes into a wait
   span instead. *)

let ring_cap = 64

type ring = {
  slots : Bytes.t array;
  group : int array;  (* group size, at the group's first slot *)
  rid : int array;  (* request id, at the group's first slot *)
  head : int Atomic.t;
  tail : int Atomic.t;
  produced : int Atomic.t;  (* objects in total, once the producer stops *)
}

let ring () =
  {
    slots = Array.make ring_cap Bytes.empty;
    group = Array.make ring_cap 0;
    rid = Array.make ring_cap 0;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    produced = Atomic.make (-1);
  }

let wait_span c ~req ~parent =
  match c.tr with None -> -1 | Some tr -> open_span tr ~kind:k_wait ~parent ~req

let producer sh c rg script =
  let j = ref 0 and seq = ref 0 in
  let timing = ref false in
  while Atomic.get sh.phase <> stopping do
    if (not !timing) && Atomic.get sh.phase = timed then begin
      timing := true;
      start_timing c
    end;
    let k = script.(!j) in
    j := (!j + 1) mod Array.length script;
    let req = !seq in
    incr seq;
    let r = request_span c ~req in
    let tail = Atomic.get rg.tail in
    if tail + k - Atomic.get rg.head > ring_cap then begin
      let w = wait_span c ~req ~parent:r in
      while tail + k - Atomic.get rg.head > ring_cap do Domain.cpu_relax () done;
      end_span c w
    end;
    let t0 = Clock.ns () in
    for i = 0 to k - 1 do
      rg.slots.((tail + i) mod ring_cap) <- take sh.pool c ~req ~parent:r
    done;
    rg.group.(tail mod ring_cap) <- k;
    rg.rid.(tail mod ring_cap) <- req;
    Atomic.set rg.tail (tail + k);
    let t1 = Clock.ns () in
    end_span c r;
    if !timing then begin
      Lat.add c.hist (t1 - t0);
      c.ops <- c.ops + k;
      c.reqs <- c.reqs + 1;
      c.t_end <- t1;
      if full c then Atomic.set sh.phase stopping
    end
  done;
  if !timing then stop_timing c;
  Atomic.set rg.produced (Atomic.get rg.tail)

(* The consumer warms up on the first [warm_requests] groups, opens the
   window, and after it closes drains the ring until the producer's
   final count. *)
let consumer sh c rg =
  let drained () =
    let p = Atomic.get rg.produced in
    p >= 0 && Atomic.get rg.head = p
  in
  let wait () =
    let w = wait_span c ~req:(-1) ~parent:(-1) in
    while Atomic.get rg.tail = Atomic.get rg.head && not (drained ()) do
      Domain.cpu_relax ()
    done;
    end_span c w
  in
  (* Release the next group, if one is published. *)
  let serve_group ~timing =
    let head = Atomic.get rg.head in
    Atomic.get rg.tail > head
    && begin
         let k = rg.group.(head mod ring_cap) and req = rg.rid.(head mod ring_cap) in
         let r = request_span c ~req in
         let t0 = Clock.ns () in
         for i = 0 to k - 1 do
           give sh.pool c rg.slots.((head + i) mod ring_cap) ~req ~parent:r
         done;
         Atomic.set rg.head (head + k);
         let t1 = Clock.ns () in
         end_span c r;
         if timing then begin
           Lat.add c.hist (t1 - t0);
           c.ops <- c.ops + k;
           c.reqs <- c.reqs + 1;
           c.t_end <- t1;
           if over sh ~served:c.reqs t1 || full c then Atomic.set sh.phase stopping
         end;
         true
       end
  in
  let groups = ref 0 in
  while !groups < warm_requests do
    if serve_group ~timing:false then incr groups else wait ()
  done;
  open_window sh c;
  while Atomic.get sh.phase = timed do
    if not (serve_group ~timing:true) then wait ()
  done;
  stop_timing c;
  while not (drained ()) do
    if not (serve_group ~timing:false) then wait ()
  done

(* --- a round -------------------------------------------------------- *)

type round = {
  setup_s : float;  (* pool, domain spawn and warm-up *)
  window_s : float;
  ops : int;  (* pool calls in the timed window, every domain *)
  hist : Lat.t;
  bad : int;  (* object checks, counter imbalance, unserved requests *)
  stats : Pstats.snapshot;  (* the whole round, after every flush *)
  words : float;  (* minor words in the timed window, every domain *)
  gc : Gc.stat * Gc.stat;  (* before the pool, after the join *)
  final_target : int;
  tracers : tracer list;
}

let pool_ops (s : Pstats.snapshot) = s.s_allocs + s.s_frees

let round ?(limit = max_int) (inp : Inputs.native) ~window_s ~traced =
  let g0 = Gc.quick_stat () in
  let t0 = Clock.ns () in
  let pool =
    Pool.create ~ctor:(if traced then traced_ctor else ctor) ~mode:inp.mode ()
  in
  let sh =
    {
      pool; phase = Atomic.make warming;
      window_ns = int_of_float (window_s *. 1e9); limit; t_go = 0;
    }
  in
  let clients = Array.init (Inputs.domains inp.workload) (fun _ -> client ~traced) in
  let in_domain f () =
    f ();
    Pool.flush_local pool;
    Domain.DLS.get tracer_key := None
  in
  (match inp.workload with
  | Inputs.Local -> in_domain (fun () -> local_client sh clients.(0) inp.script) ()
  | Inputs.Remote ->
      let rg = ring () in
      let p = Domain.spawn (in_domain (fun () -> producer sh clients.(1) rg inp.script)) in
      in_domain (fun () -> consumer sh clients.(0) rg) ();
      Domain.join p
  | Inputs.Burst ->
      in_domain (fun () -> burst_client sh clients.(0) inp.script inp.order) ());
  let g1 = Gc.quick_stat () in
  let stats = Pstats.read (Pool.stats pool) in
  let hist = Lat.create () in
  Array.iter (fun (c : client) -> Lat.merge ~into:hist c.hist) clients;
  let t_end = Array.fold_left (fun t (c : client) -> max t c.t_end) sh.t_go clients in
  let sum f = Array.fold_left (fun n (c : client) -> n + f c) 0 clients in
  {
    setup_s = Clock.s_of_ns (sh.t_go - t0);
    window_s = Clock.s_of_ns (t_end - sh.t_go);
    ops = sum (fun c -> c.ops);
    hist;
    words = Array.fold_left (fun n (c : client) -> n +. c.words) 0. clients;
    bad = sum (fun c -> c.bad) + abs (stats.s_allocs - stats.s_frees);
    stats;
    gc = (g0, g1);
    final_target = Pool.current_target pool;
    tracers = List.filter_map (fun c -> c.tr) (Array.to_list clients);
  }

(* --- metrics -------------------------------------------------------- *)

let ops_per_s r = float_of_int r.ops /. r.window_s

let minor_words_per_op r = r.words /. float_of_int (max 1 r.ops)

let end_to_end rounds =
  let hist = Lat.create () in
  List.iter (fun r -> Lat.merge ~into:hist r.hist) rounds;
  [
    ("native_ops_per_s", "1/s", Lat.median (List.map ops_per_s rounds));
    ("native_req_p50_ns", "ns", Lat.quantile hist 0.50);
    ("native_req_p99_ns", "ns", Lat.quantile hist 0.99);
    ("native_minor_words_per_op", "words", Lat.median (List.map minor_words_per_op rounds));
  ]

(* Direct calls into one layer, timed in batches; the median batch. *)
let ns_per_call f =
  let n = 200_000 in
  Lat.median
    (List.init 7 (fun _ ->
         let t0 = Clock.ns () in
         for _ = 1 to n do f () done;
         float_of_int (Clock.ns () - t0) /. float_of_int n))

let magazine_pair_ns () =
  let m = Objpool.Magazine.create ~target:16 and x = ctor () in
  ns_per_call (fun () ->
      ignore (Objpool.Magazine.put m x);
      ignore (Objpool.Magazine.get m))

let depot_roundtrip_ns () =
  let d = Objpool.Depot.create ~target:16 ~max_batches:32 in
  let batch = List.init 16 (fun _ -> ctor ()) in
  ns_per_call (fun () ->
      ignore (Objpool.Depot.put d batch);
      ignore (Objpool.Depot.get d))

(* Span durations and self times (duration minus the children's). *)
let span_walk tr f =
  let child = Array.make tr.n 0 in
  for i = 0 to tr.n - 1 do
    let p = tr.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (tr.t1.(i) - tr.t0.(i))
  done;
  for i = 0 to tr.n - 1 do
    let d = tr.t1.(i) - tr.t0.(i) in
    f i ~kind:tr.kind.(i) ~dur:d ~self:(d - child.(i))
  done

let per_layer ~untraced ~traced =
  let alloc_h = Lat.create () and release_h = Lat.create () in
  let n = Array.make 5 0 and self = Array.make 5 0 and dur = Array.make 5 0 in
  List.iter
    (fun tr ->
      span_walk tr (fun _ ~kind ~dur:d ~self:s ->
          n.(kind) <- n.(kind) + 1;
          dur.(kind) <- dur.(kind) + d;
          self.(kind) <- self.(kind) + s;
          if kind = k_alloc then Lat.add alloc_h d
          else if kind = k_release then Lat.add release_h d))
    traced.tracers;
  let per k a = if n.(k) = 0 then 0. else float_of_int a /. float_of_int n.(k) in
  let reqs = max 1 n.(k_request) in
  let sum f = List.fold_left (fun a r -> a + f r) 0 untraced in
  let sumf f = List.fold_left (fun a r -> a +. f r) 0. untraced in
  let ops = max 1 (sum (fun r -> pool_ops r.stats)) in
  let st f = sum (fun r -> f r.stats) in
  let gc f = sumf (fun r -> let g0, g1 = r.gc in f g1 -. f g0) in
  let kop x = 1000. *. float_of_int x /. float_of_int ops in
  let open Pstats in
  let acquires = st (fun s -> s.s_depot_acquires) in
  [
    ("pool.alloc_p50_ns", "ns", Lat.quantile alloc_h 0.50);
    ("pool.alloc_p99_ns", "ns", Lat.quantile alloc_h 0.99);
    ("pool.release_p50_ns", "ns", Lat.quantile release_h 0.50);
    ("pool.release_p99_ns", "ns", Lat.quantile release_h 0.99);
    ("pool.self_ns_per_op", "ns",
     float_of_int (self.(k_alloc) + self.(k_release))
     /. float_of_int (max 1 (n.(k_alloc) + n.(k_release))));
    ("pool.magazine.hit_rate", "ratio",
     1. -. (float_of_int (st (fun s -> s.s_depot_gets))
            /. float_of_int (max 1 (st (fun s -> s.s_allocs)))));
    ("pool.magazine.pair_ns", "ns", magazine_pair_ns ());
    ("pool.depot.acquires_per_kop", "count", kop acquires);
    ("pool.depot.drops_per_kop", "count", kop (st (fun s -> s.s_drops)));
    ("pool.depot.contended_share", "ratio",
     if acquires = 0 then 0.
     else float_of_int (st (fun s -> s.s_depot_contended)) /. float_of_int acquires);
    ("pool.depot.roundtrip_ns", "ns", depot_roundtrip_ns ());
    ("pool.adapt.steps", "count",
     Lat.median (List.map (fun r -> float_of_int (r.stats.s_grows + r.stats.s_shrinks)) untraced));
    ("pool.adapt.final_target", "count",
     Lat.median (List.map (fun r -> float_of_int r.final_target) untraced));
    ("pool.ctor.creates_per_kop", "count", kop (st (fun s -> s.s_creates)));
    ("pool.ctor.ns_per_create", "ns", per k_ctor dur.(k_ctor));
    ("gc.minor_collections_per_mop", "count",
     1e6 *. gc (fun g -> float_of_int g.Gc.minor_collections) /. float_of_int ops);
    ("gc.major_collections_per_mop", "count",
     1e6 *. gc (fun g -> float_of_int g.Gc.major_collections) /. float_of_int ops);
    ("gc.promoted_words_per_op", "words",
     gc (fun g -> g.Gc.promoted_words) /. float_of_int ops);
    ("client.self_ns_per_req", "ns", per k_request self.(k_request));
    ("client.handoff_wait_ns_per_req", "ns",
     float_of_int dur.(k_wait) /. float_of_int reqs);
    ("trace.overhead_native_pct", "%",
     100. *. ((Lat.median (List.map ops_per_s untraced) /. ops_per_s traced) -. 1.));
  ]

let write_spans oc r =
  List.iteri
    (fun d tr ->
      span_walk tr (fun i ~kind ~dur:_ ~self ->
          let p = tr.parent.(i) in
          Printf.fprintf oc "native\t%d.%d\t%s\t%s\t%d\t%d\t%d\t%d\tdomain=%d\n" d i
            kind_name.(kind)
            (if p < 0 then "-" else Printf.sprintf "%d.%d" d p)
            tr.req.(i) tr.t0.(i) tr.t1.(i) self d))
    r.tracers
