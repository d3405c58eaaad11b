open Objpool

(* Edge cases and the adaptive-geometry discipline: depot-overflow
   drops, cross-domain reachability after flush_local, reset raising
   mid-release, degenerate target:1 geometry, racing Pstats readers,
   refill, and the adaptive level, driven by real drops. *)

type obj = { id : int; mutable poison : bool }

let make_pool ?(target = 4) ?(depot_batches = 8) ?mode ?reset () =
  let next = Atomic.make 0 in
  Pool.create
    ~ctor:(fun () -> { id = Atomic.fetch_and_add next 1; poison = false })
    ?reset ~target ~depot_batches ?mode ()

(* --- satellite: Pstats is safe to read while writers race --- *)

let test_pstats_racing_readers () =
  let s = Pstats.create () in
  let per_domain = 50_000 in
  let writer () =
    let c = Pstats.register s in
    for _ = 1 to per_domain do
      c.allocs <- c.allocs + 1;
      c.frees <- c.frees + 1;
      c.depot_acquires <- c.depot_acquires + 1
    done
  in
  let ds = List.init 2 (fun _ -> Domain.spawn writer) in
  (* Race reads against the writers: every read must be a valid count,
     and each counter must be monotone across successive reads. *)
  let last = ref 0 in
  for _ = 1 to 2_000 do
    let snap = Pstats.read s in
    let a = snap.Pstats.s_allocs in
    if a < !last then Alcotest.failf "allocs went backwards: %d < %d" a !last;
    last := a;
    if snap.Pstats.s_frees < 0 then Alcotest.fail "negative frees"
  done;
  List.iter Domain.join ds;
  let snap = Pstats.read s in
  Alcotest.(check int) "exact allocs" (2 * per_domain) snap.Pstats.s_allocs;
  Alcotest.(check int) "exact frees" (2 * per_domain) snap.Pstats.s_frees;
  Alcotest.(check int)
    "exact acquires" (2 * per_domain) snap.Pstats.s_depot_acquires;
  Alcotest.(check int) "no contention recorded" 0 snap.Pstats.s_depot_contended

(* --- satellite: depot overflow drops to the GC, pool stays usable --- *)

let test_depot_overflow_drops () =
  let p = make_pool ~target:2 ~depot_batches:1 () in
  let live = List.init 40 (fun _ -> Pool.alloc p) in
  List.iter (Pool.release p) live;
  let s = Pstats.read (Pool.stats p) in
  Alcotest.(check bool) "drops happened" true (s.Pstats.s_drops > 0);
  Alcotest.(check int) "all frees counted" 40 s.Pstats.s_frees;
  (* Capacity bounds what survives: one depot batch + the magazine. *)
  Alcotest.(check bool) "depot respects bound" true (Pool.depot_batches p <= 1);
  let o = Pool.alloc p in
  Alcotest.(check bool) "pool still serves" true (o.id >= 0);
  Pool.release p o

(* --- satellite: flush_local makes a domain's stock reachable --- *)

let test_flush_local_cross_domain () =
  let p = make_pool ~target:4 ~depot_batches:8 () in
  let d =
    Domain.spawn (fun () ->
        let objs = List.init 8 (fun _ -> Pool.alloc p) in
        List.iter (Pool.release p) objs;
        Pool.flush_local p)
  in
  Domain.join d;
  let created = Pstats.creates (Pool.stats p) in
  (* Everything the worker built is now in the depot: this domain can
     allocate without paying constructor cost. *)
  let mine = List.init 8 (fun _ -> Pool.alloc p) in
  Alcotest.(check int)
    "no new constructions" created
    (Pstats.creates (Pool.stats p));
  List.iter (Pool.release p) mine

(* --- satellite: reset raising mid-release abandons the object --- *)

let test_reset_raising () =
  let p =
    make_pool
      ~reset:(fun o -> if o.poison then failwith "poisoned reset")
      ()
  in
  let a = Pool.alloc p in
  a.poison <- true;
  (match Pool.release p a with
  | () -> Alcotest.fail "expected the reset exception to propagate"
  | exception Failure _ -> ());
  let s = Pstats.read (Pool.stats p) in
  Alcotest.(check int) "abandoned, not freed" 0 s.Pstats.s_frees;
  (* The poisoned object re-entered nothing: the next alloc builds a
     fresh one, and normal traffic still flows. *)
  let b = Pool.alloc p in
  Alcotest.(check bool) "fresh object" true (b.id <> a.id);
  Pool.release p b;
  Alcotest.(check int) "pool usable after" 1
    (Pstats.frees (Pool.stats p))

(* --- satellite: target:1 (no batching) still round-trips --- *)

let test_target_one () =
  let p = make_pool ~target:1 ~depot_batches:2 () in
  for _ = 1 to 10 do
    let o = Pool.alloc p in
    Pool.release p o
  done;
  let s = Pstats.read (Pool.stats p) in
  Alcotest.(check int) "balanced" s.Pstats.s_allocs s.Pstats.s_frees;
  Alcotest.(check bool) "tiny working set" true (s.Pstats.s_creates <= 3)

(* Release [n] freshly constructed objects from this domain and return
   the distinct (target, bound) pairs the pool passed through, starting
   from its geometry before the first release.  One domain never finds
   the depot lock held, so only drops move the level: the sequence is
   deterministic. *)
let geometry_steps p n =
  let live = List.init n (fun _ -> Pool.alloc p) in
  let now () = (Pool.current_target p, Pool.depot_bound p) in
  List.rev
    (List.fold_left
       (fun seen o ->
         Pool.release p o;
         if now () = List.hd seen then seen else now () :: seen)
       [ now () ] live)

let test_target_one_adaptive () =
  let p = make_pool ~target:1 ~depot_batches:1 ~mode:`Adaptive () in
  Alcotest.(check int) "base" 1 (Pool.current_target p);
  Alcotest.(check (list (pair int int)))
    "one level per drop, 8x at most"
    [ (1, 1); (2, 2); (3, 3); (4, 4); (5, 5); (6, 6); (7, 7); (8, 8) ]
    (geometry_steps p 200);
  let o = Pool.alloc p in
  Pool.release p o

(* --- the adaptive level: each drop raises it one step --- *)

let test_steps_deterministic () =
  let run () =
    let p = make_pool ~target:4 ~depot_batches:1 ~mode:`Adaptive () in
    let steps = geometry_steps p 200 in
    (steps, (Pstats.read (Pool.stats p)).Pstats.s_grows)
  in
  let expect =
    [ (4, 1); (8, 2); (12, 3); (16, 4); (20, 5); (24, 6); (28, 7) ]
  in
  let steps, grows = run () in
  Alcotest.(check (list (pair int int))) "exact steps" expect steps;
  Alcotest.(check int) "grows counted" 6 grows;
  Alcotest.(check bool) "same on a second run" true (run () = (steps, grows))

let test_level_ceiling () =
  let p = make_pool ~target:4 ~depot_batches:1 ~mode:`Adaptive () in
  ignore (geometry_steps p 2_000);
  Alcotest.(check (pair int int))
    "pinned at level 7" (32, 8)
    (Pool.current_target p, Pool.depot_bound p);
  let s = Pstats.read (Pool.stats p) in
  Alcotest.(check int) "no phantom steps" 7 s.Pstats.s_grows;
  Alcotest.(check bool) "drops went on" true (s.Pstats.s_drops > 7);
  (* A pool configured to drop every flush gains a one-batch depot at
     its first step, and no more. *)
  let p = make_pool ~target:2 ~depot_batches:0 ~mode:`Adaptive () in
  ignore (geometry_steps p 2_000);
  Alcotest.(check (pair int int))
    "zero base bound caps at 1" (16, 1)
    (Pool.current_target p, Pool.depot_bound p)

let test_fixed_never_moves () =
  let p = make_pool ~target:4 ~depot_batches:1 () in
  Alcotest.(check (list (pair int int)))
    "never moves" [ (4, 1) ] (geometry_steps p 200);
  let s = Pstats.read (Pool.stats p) in
  Alcotest.(check bool) "despite drops" true (s.Pstats.s_drops > 0);
  Alcotest.(check int) "no grows" 0 s.Pstats.s_grows

(* Adaptive mode reacts to real traffic: a burst of constructions
   followed by a flood of releases overflows the depot, which must
   grow the geometry.  Single-domain, so fully deterministic. *)
let test_adaptive_grows_under_churn () =
  let p = make_pool ~target:2 ~depot_batches:1 ~mode:`Adaptive () in
  let live = List.init 64 (fun _ -> Pool.alloc p) in
  List.iter (Pool.release p) live;
  let s = Pstats.read (Pool.stats p) in
  Alcotest.(check bool) "grew" true (s.Pstats.s_grows > 0);
  Alcotest.(check bool) "geometry above base" true (Pool.current_target p > 2)

(* A domain that only allocates never reaches a flush safe point, so
   it must adopt the level at the depot get instead: each grown batch
   then installs whole, with no excess pushed back. *)
let test_alloc_only_domain_adopts_target () =
  let p = make_pool ~target:4 ~depot_batches:4 ~mode:`Adaptive () in
  (* This domain's magazine is cut at the base target, then left
     empty. *)
  let first = Pool.alloc p in
  let d =
    Domain.spawn (fun () ->
        (* Overflow the depot until three drops have raised the level
           to 3; the objects left over go to the GC. *)
        let objs = List.init 200 (fun _ -> Pool.alloc p) in
        List.iter
          (fun o -> if Pool.current_target p < 16 then Pool.release p o)
          objs;
        Pool.refill p ~batches:4)
  in
  Alcotest.(check int) "four 16-object batches stocked" 4 (Domain.join d);
  Alcotest.(check int) "target grew" 16 (Pool.current_target p);
  let s0 = Pstats.read (Pool.stats p) in
  let objs = List.init 64 (fun _ -> Pool.alloc p) in
  let s1 = Pstats.read (Pool.stats p) in
  Alcotest.(check int) "one depot get per batch" 4
    (s1.Pstats.s_depot_gets - s0.Pstats.s_depot_gets);
  Alcotest.(check int) "no partial puts" 0
    (s1.Pstats.s_depot_puts - s0.Pstats.s_depot_puts);
  Alcotest.(check int) "no constructor calls" 0
    (s1.Pstats.s_creates - s0.Pstats.s_creates);
  List.iter (Pool.release p) (first :: objs)

(* --- satellite: refill (the SpeedMalloc dedicated-core hook) --- *)

let test_refill () =
  let p = make_pool ~target:4 ~depot_batches:4 () in
  Alcotest.(check int) "kept until full" 4 (Pool.refill p ~batches:10);
  let s = Pstats.read (Pool.stats p) in
  Alcotest.(check int) "prefills counted" 4 s.Pstats.s_prefills;
  Alcotest.(check int) "one speculative batch dropped" 1 s.Pstats.s_drops;
  Alcotest.(check int) "depot fully stocked" 4 (Pool.depot_batches p);
  (* Workers now never pay constructor cost. *)
  let o = Pool.alloc p in
  Alcotest.(check int) "no create on alloc" 0
    (Pstats.creates (Pool.stats p));
  Pool.release p o;
  Alcotest.(check int) "zero batches is a no-op" 0 (Pool.refill p ~batches:0);
  Alcotest.check_raises "negative batches rejected"
    (Invalid_argument "Pool.refill: batches < 0") (fun () ->
      ignore (Pool.refill p ~batches:(-1)))

let suite =
  [
    Alcotest.test_case "pstats racing readers" `Quick
      test_pstats_racing_readers;
    Alcotest.test_case "depot overflow drops" `Quick test_depot_overflow_drops;
    Alcotest.test_case "flush_local cross-domain" `Quick
      test_flush_local_cross_domain;
    Alcotest.test_case "reset raising abandons" `Quick test_reset_raising;
    Alcotest.test_case "target:1" `Quick test_target_one;
    Alcotest.test_case "target:1 adaptive" `Quick test_target_one_adaptive;
    Alcotest.test_case "deterministic steps" `Quick test_steps_deterministic;
    Alcotest.test_case "level ceiling" `Quick test_level_ceiling;
    Alcotest.test_case "fixed never moves" `Quick test_fixed_never_moves;
    Alcotest.test_case "adaptive grows under churn" `Quick
      test_adaptive_grows_under_churn;
    Alcotest.test_case "alloc-only domain adopts target" `Quick
      test_alloc_only_domain_adopts_target;
    Alcotest.test_case "refill" `Quick test_refill;
  ]
