open Objpool

(* Pooled object carrying a checked-out flag so tests can detect a
   double hand-out, plus an id. *)
type obj = { id : int; checked_out : bool Atomic.t; mutable dirty : bool }

let make_pool ?(target = 4) ?(depot_batches = 8) () =
  let next = Atomic.make 0 in
  Pool.create
    ~ctor:(fun () ->
      {
        id = Atomic.fetch_and_add next 1;
        checked_out = Atomic.make false;
        dirty = false;
      })
    ~reset:(fun o -> o.dirty <- false)
    ~target ~depot_batches ()

let checkout o =
  Alcotest.(check bool) "not already out" true
    (Atomic.compare_and_set o.checked_out false true)

let checkin o = Atomic.set o.checked_out false

let test_reuse () =
  let p = make_pool () in
  let a = Pool.alloc p in
  Pool.release p a;
  let b = Pool.alloc p in
  Alcotest.(check int) "hot object reused" a.id b.id;
  Pool.release p b;
  Alcotest.(check int) "one construction" 1 (Pstats.creates (Pool.stats p))

let test_reset_applied () =
  let p = make_pool () in
  let a = Pool.alloc p in
  a.dirty <- true;
  Pool.release p a;
  let b = Pool.alloc p in
  Alcotest.(check bool) "reset on release" false b.dirty;
  Pool.release p b

let test_never_hands_out_twice_single_domain () =
  let p = make_pool () in
  let live = ref [] in
  for i = 1 to 500 do
    if i mod 3 = 0 then (
      match !live with
      | o :: rest ->
          live := rest;
          checkin o;
          Pool.release p o
      | [] -> ())
    else begin
      let o = Pool.alloc p in
      checkout o;
      live := o :: !live
    end
  done;
  List.iter
    (fun o ->
      checkin o;
      Pool.release p o)
    !live

let test_flush_local_shares_stock () =
  let p = make_pool ~target:4 () in
  (* Fill this domain's magazine. *)
  let objs = List.init 8 (fun _ -> Pool.alloc p) in
  List.iter (fun o -> Pool.release p o) objs;
  Alcotest.(check int) "depot still empty" 0 (Pool.depot_batches_oracle p);
  Pool.flush_local p;
  (* Another domain can now allocate without constructing. *)
  let creates_before = Pstats.creates (Pool.stats p) in
  let d =
    Domain.spawn (fun () ->
        let o = Pool.alloc p in
        Pool.release p o;
        ())
  in
  Domain.join d;
  Alcotest.(check int) "no new constructions" creates_before
    (Pstats.creates (Pool.stats p))

let test_multidomain_stress () =
  let p = make_pool ~target:8 ~depot_batches:16 () in
  let ndomains = 4 and per_domain = 2000 in
  (* Alcotest's checks are not domain-safe (they share one [Format]
     queue), so the workers only count double hand-outs and this
     domain asserts after the join. *)
  let twice = Atomic.make 0 in
  let domains =
    List.init ndomains (fun _ ->
        Domain.spawn (fun () ->
            let live = Queue.create () in
            for i = 1 to per_domain do
              if i mod 2 = 0 && Queue.length live > 0 then begin
                let o = Queue.pop live in
                checkin o;
                Pool.release p o
              end
              else begin
                let o = Pool.alloc p in
                if not (Atomic.compare_and_set o.checked_out false true) then
                  Atomic.incr twice;
                Queue.add o live
              end
            done;
            while Queue.length live > 0 do
              let o = Queue.pop live in
              checkin o;
              Pool.release p o
            done;
            Pool.flush_local p))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "never handed out twice" 0 (Atomic.get twice);
  let st = Pool.stats p in
  Alcotest.(check int) "allocs = frees" (Pstats.allocs st) ((Pstats.read st).Pstats.s_frees);
  Alcotest.(check bool) "magazines absorb most traffic" true
    (Pstats.magazine_hit_rate st > 0.5)

let test_depot_overflow_drops () =
  let p = make_pool ~target:2 ~depot_batches:1 () in
  let objs = List.init 20 (fun _ -> Pool.alloc p) in
  List.iter (fun o -> Pool.release p o) objs;
  (* 20 releases with a 2-target magazine (holds 4) and a 1-batch depot:
     something must have been dropped to the GC. *)
  Alcotest.(check bool) "drops counted" true (Pstats.drops (Pool.stats p) > 0)

(* A magazine hit allocates nothing: no option box, no list cell, no
   counter box.  Only the two [Gc.minor_words] readings may allocate. *)
let test_hit_path_allocates_nothing () =
  let p = make_pool ~target:16 () in
  Pool.release p (Pool.alloc p);
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Pool.release p (Pool.alloc p)
  done;
  let words = Gc.minor_words () -. w0 in
  if words >= 16. then
    Alcotest.failf "%.0f minor words over 100k warm pairs" words

let prop_single_domain_traffic =
  QCheck.Test.make ~name:"random traffic keeps stats consistent" ~count:100
    QCheck.(small_list bool)
    (fun ops ->
      let p = make_pool ~target:3 ~depot_batches:4 () in
      let live = ref [] in
      List.iter
        (fun is_alloc ->
          if is_alloc then live := Pool.alloc p :: !live
          else
            match !live with
            | o :: rest ->
                live := rest;
                Pool.release p o
            | [] -> ())
        ops;
      let st = Pool.stats p in
      Pstats.allocs st - (Pstats.read st).Pstats.s_frees = List.length !live)

let suite =
  [
    Alcotest.test_case "hot object reused, ctor once" `Quick test_reuse;
    Alcotest.test_case "reset applied on release" `Quick test_reset_applied;
    Alcotest.test_case "never hands out twice (single domain)" `Quick
      test_never_hands_out_twice_single_domain;
    Alcotest.test_case "flush_local shares stock across domains" `Quick
      test_flush_local_shares_stock;
    Alcotest.test_case "4-domain stress: exact accounting" `Quick
      test_multidomain_stress;
    Alcotest.test_case "depot overflow drops to GC" `Quick
      test_depot_overflow_drops;
    Alcotest.test_case "magazine hit allocates nothing" `Quick
      test_hit_path_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_single_domain_traffic;
  ]
