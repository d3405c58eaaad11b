module Hist = Hist
module Pool = Objpool.Pool
module Pstats = Objpool.Pstats

let now64 () = Monotonic_clock.now ()

(* ---------------------------------------------------------------- *)
(* Request shapes: the seven scenario names from lib/scenario, re-cut
   as per-request allocation graphs over a live Pool.t.              *)

type shape =
  | Steady
  | Rpc
  | Bursty
  | Long_tail
  | Producer_consumer
  | Frag_adversary
  | Recorded_dlm

let shape_of_name = function
  | "steady" -> Some Steady
  | "rpc" -> Some Rpc
  | "bursty" -> Some Bursty
  | "long_tail" -> Some Long_tail
  | "producer_consumer" -> Some Producer_consumer
  | "frag_adversary" -> Some Frag_adversary
  | "recorded_dlm" -> Some Recorded_dlm
  | _ -> None

let shape_of_scenario name =
  match Scenario.find name with
  | None -> None
  | Some _ -> shape_of_name name

type arrival = [ `Closed | `Open_ns of int ]

type config = {
  scenario : string;
  domains : int;
  requests : int;  (* per domain *)
  seed : int;
  mode : Pool.mode;
  refill : bool;
  target : int;
  depot_batches : int;
  arrival : arrival;
  obj_bytes : int;
}

let default ~scenario =
  {
    scenario;
    domains = 2;
    requests = 100_000;
    seed = 42;
    mode = `Fixed;
    refill = false;
    target = 16;
    depot_batches = 32;
    arrival = `Closed;
    obj_bytes = 256;
  }

type domain_stat = {
  d_index : int;
  d_requests : int;
  d_p50 : float;
  d_p99 : float;
  d_p999 : float;
  d_max_ns : int;
}

type outcome = {
  o_scenario : string;
  o_mode : Pool.mode;
  o_domains : int;
  o_requests : int;  (* total, all domains *)
  o_ops : int;  (* allocs + frees through the pool *)
  o_wall_s : float;
  o_ops_per_sec : float;
  o_p50 : float;
  o_p99 : float;
  o_p999 : float;
  o_mean_ns : float;
  o_max_ns : int;
  o_stats : Pstats.snapshot;
  o_contention : float;
  o_final_target : int;
  o_final_bound : int;
  o_per_domain : domain_stat list;
}

(* ---------------------------------------------------------------- *)
(* Cross-domain free mailboxes: one Treiber-style push list per
   domain.  A producer CAS-pushes a released object onto the
   consumer's list; the consumer takes the whole list with a single
   exchange.  All pushes a domain will ever do complete before it
   decrements [active], so a final take after observing [active = 0]
   misses nothing. *)

let mailbox_push mb x =
  let rec go () =
    let old = Atomic.get mb in
    if not (Atomic.compare_and_set mb old (x :: old)) then go ()
  in
  go ()

let mailbox_take mb = Atomic.exchange mb []

(* ---------------------------------------------------------------- *)

let touch obj = Bytes.unsafe_set obj 0 'x'

type wstate = {
  rng : Workload.Prng.t;
  longlived : Bytes.t Queue.t;
  window : Bytes.t Queue.t;
}

let long_cap = 256
let pin_cap = 512
let window_cap = 8

(* One request's allocation graph.  [send] hands an object to the next
   domain's mailbox (cross-domain free); with a single domain every
   shape degenerates to local release. *)
let do_request shape pool st ~send ~can_send =
  let open Workload in
  match shape with
  | Steady ->
      let o = Pool.alloc pool in
      touch o;
      Pool.release pool o
  | Rpc ->
      let req = Pool.alloc pool in
      let resp = Pool.alloc pool in
      touch req;
      touch resp;
      Pool.release pool req;
      if can_send && Prng.int st.rng ~bound:8 = 0 then send resp
      else Pool.release pool resp
  | Bursty ->
      let k = 1 + Prng.int st.rng ~bound:8 in
      let held = ref [] in
      for _ = 1 to k do
        let o = Pool.alloc pool in
        touch o;
        held := o :: !held
      done;
      List.iter (Pool.release pool) !held
  | Long_tail ->
      let o = Pool.alloc pool in
      touch o;
      if Prng.int st.rng ~bound:100 < 12 then begin
        Queue.push o st.longlived;
        if Queue.length st.longlived > long_cap then
          Pool.release pool (Queue.pop st.longlived)
      end
      else Pool.release pool o
  | Producer_consumer ->
      let o = Pool.alloc pool in
      touch o;
      if can_send then send o else Pool.release pool o
  | Frag_adversary ->
      let a = Pool.alloc pool in
      let b = Pool.alloc pool in
      let c = Pool.alloc pool in
      let d = Pool.alloc pool in
      touch a;
      touch b;
      touch c;
      touch d;
      Pool.release pool a;
      Pool.release pool b;
      Pool.release pool c;
      Queue.push d st.longlived;
      if Queue.length st.longlived > pin_cap then
        Pool.release pool (Queue.pop st.longlived)
  | Recorded_dlm ->
      let req = Pool.alloc pool in
      let resp = Pool.alloc pool in
      touch req;
      touch resp;
      Pool.release pool req;
      Queue.push resp st.window;
      if Queue.length st.window > window_cap then begin
        let oldest = Queue.pop st.window in
        if can_send && Prng.int st.rng ~bound:4 = 0 then send oldest
        else Pool.release pool oldest
      end

let validate cfg =
  if cfg.domains < 1 then invalid_arg "Service.run: domains < 1";
  if cfg.requests < 0 then invalid_arg "Service.run: requests < 0";
  if cfg.target < 1 then invalid_arg "Service.run: target < 1";
  if cfg.depot_batches < 0 then invalid_arg "Service.run: depot_batches < 0";
  if cfg.obj_bytes < 1 then invalid_arg "Service.run: obj_bytes < 1";
  (match cfg.arrival with
  | `Open_ns m when m < 1 -> invalid_arg "Service.run: open arrival mean < 1 ns"
  | _ -> ());
  match shape_of_scenario cfg.scenario with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Service.run: unknown scenario %S" cfg.scenario)

let run cfg =
  let shape = validate cfg in
  let pool =
    Pool.create
      ~ctor:(fun () -> Bytes.create cfg.obj_bytes)
      ~target:cfg.target ~depot_batches:cfg.depot_batches ~mode:cfg.mode ()
  in
  let n = cfg.domains in
  let mailboxes = Array.init n (fun _ -> Atomic.make []) in
  let active = Atomic.make n in
  let stop_refill = Atomic.make false in
  let hists = Array.init n (fun _ -> Hist.create ()) in
  let reqdone = Array.make n 0 in
  let drain_mailbox di =
    match mailbox_take mailboxes.(di) with
    | [] -> ()
    | objs -> List.iter (Pool.release pool) objs
  in
  let worker di () =
    let st =
      {
        rng = Workload.Prng.create ~seed:(cfg.seed + (di * 0x9e3779b9));
        longlived = Queue.create ();
        window = Queue.create ();
      }
    in
    let can_send = n > 1 in
    let send o = mailbox_push mailboxes.((di + 1) mod n) o in
    let h = hists.(di) in
    let mean = match cfg.arrival with `Open_ns m -> m | `Closed -> 0 in
    let deadline = ref (now64 ()) in
    for _ = 1 to cfg.requests do
      let t0 =
        match cfg.arrival with
        | `Closed -> now64 ()
        | `Open_ns _ ->
            (* Open loop: latency is measured from the request's
               scheduled arrival, so queueing delay when the service
               falls behind is charged to the tail (no coordinated
               omission). *)
            let gap = Workload.Prng.int st.rng ~bound:((2 * mean) + 1) in
            deadline := Int64.add !deadline (Int64.of_int gap);
            while Int64.compare (now64 ()) !deadline < 0 do
              Domain.cpu_relax ()
            done;
            !deadline
      in
      do_request shape pool st ~send ~can_send;
      drain_mailbox di;
      Hist.add h (Int64.to_int (Int64.sub (now64 ()) t0));
      reqdone.(di) <- reqdone.(di) + 1
    done;
    (* Retire request-held state, announce completion, then keep the
       mailbox drained until every producer has stopped sending. *)
    Queue.iter (Pool.release pool) st.longlived;
    Queue.clear st.longlived;
    Queue.iter (Pool.release pool) st.window;
    Queue.clear st.window;
    Atomic.decr active;
    while Atomic.get active > 0 do
      drain_mailbox di;
      Domain.cpu_relax ()
    done;
    drain_mailbox di;
    Pool.flush_local pool
  in
  let refiller () =
    let pass () =
      let stocked = Pool.depot_batches pool in
      let bound = Pool.depot_bound pool in
      if stocked < max 1 (bound / 2) then
        ignore (Pool.refill pool ~batches:(bound - stocked))
      else Domain.cpu_relax ()
    in
    (* One unconditional stocking pass before looking at the stop flag:
       even on a single-core host where the workers can finish before
       this domain ever gets a slice, [refill:true] always stocks the
       depot at least once. *)
    pass ();
    while not (Atomic.get stop_refill) do
      pass ()
    done
  in
  let t_start = now64 () in
  let refill_dom = if cfg.refill then Some (Domain.spawn refiller) else None in
  let doms = List.init n (fun di -> Domain.spawn (worker di)) in
  List.iter Domain.join doms;
  let wall_ns = Int64.to_int (Int64.sub (now64 ()) t_start) in
  Atomic.set stop_refill true;
  Option.iter Domain.join refill_dom;
  (* Belt and braces: workers leave every mailbox empty, but sweep so
     accounting cannot leak even if a shape changes. *)
  Array.iter (fun mb -> List.iter (Pool.release pool) (mailbox_take mb)) mailboxes;
  Pool.flush_local pool;
  let stats = Pstats.read (Pool.stats pool) in
  let all = Hist.create () in
  Array.iter (fun h -> Hist.merge ~into:all h) hists;
  let per_domain =
    List.init n (fun di ->
        let h = hists.(di) in
        {
          d_index = di;
          d_requests = reqdone.(di);
          d_p50 = Hist.p50 h;
          d_p99 = Hist.p99 h;
          d_p999 = Hist.p999 h;
          d_max_ns = Hist.max_ns h;
        })
  in
  let ops = stats.Pstats.s_allocs + stats.Pstats.s_frees in
  let wall_s = float_of_int wall_ns /. 1e9 in
  {
    o_scenario = cfg.scenario;
    o_mode = cfg.mode;
    o_domains = n;
    o_requests = Array.fold_left ( + ) 0 reqdone;
    o_ops = ops;
    o_wall_s = wall_s;
    o_ops_per_sec = (if wall_s > 0. then float_of_int ops /. wall_s else 0.);
    o_p50 = Hist.p50 all;
    o_p99 = Hist.p99 all;
    o_p999 = Hist.p999 all;
    o_mean_ns = Hist.mean_ns all;
    o_max_ns = Hist.max_ns all;
    o_stats = stats;
    o_contention = Pstats.contention_rate (Pool.stats pool);
    o_final_target = Pool.current_target pool;
    o_final_bound = Pool.depot_bound pool;
    o_per_domain = per_domain;
  }

(* ---------------------------------------------------------------- *)

let mode_name = function `Fixed -> "fixed" | `Adaptive -> "adaptive"

let ns v = if Float.is_nan v then "-" else Printf.sprintf "%.0f" v

let to_string o =
  let b = Buffer.create 1024 in
  let s = o.o_stats in
  Printf.bprintf b "service %s: %d domains, %s mode, %d requests, %d pool ops\n"
    o.o_scenario o.o_domains (mode_name o.o_mode) o.o_requests o.o_ops;
  Printf.bprintf b "  wall %.3f s   %.2e ops/s\n" o.o_wall_s o.o_ops_per_sec;
  Printf.bprintf b
    "  request latency ns: p50 %s  p99 %s  p999 %s  mean %s  max %d\n"
    (ns o.o_p50) (ns o.o_p99) (ns o.o_p999) (ns o.o_mean_ns) o.o_max_ns;
  Printf.bprintf b
    "  pool: allocs %d  frees %d  creates %d  hit-rate %.4f\n"
    s.Pstats.s_allocs s.Pstats.s_frees s.Pstats.s_creates
    (1.
    -.
    if s.Pstats.s_allocs = 0 then 0.
    else float_of_int s.Pstats.s_depot_gets /. float_of_int s.Pstats.s_allocs);
  Printf.bprintf b
    "  depot: acquires %d  contended %d (rate %s)  drops %d  prefills %d\n"
    s.Pstats.s_depot_acquires s.Pstats.s_depot_contended
    (if Float.is_nan o.o_contention then "-"
     else Printf.sprintf "%.4f" o.o_contention)
    s.Pstats.s_drops s.Pstats.s_prefills;
  Printf.bprintf b
    "  geometry: target %d  depot bound %d  grows %d\n" o.o_final_target
    o.o_final_bound s.Pstats.s_grows;
  List.iter
    (fun d ->
      Printf.bprintf b
        "  domain %d: %d requests  p50 %s  p99 %s  p999 %s  max %d\n" d.d_index
        d.d_requests (ns d.d_p50) (ns d.d_p99) (ns d.d_p999) d.d_max_ns)
    o.o_per_domain;
  Buffer.contents b
