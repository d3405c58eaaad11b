(* Direct unit tests for Sim.Spinlock: the first attempt on a free lock
   takes it, a held lock makes the next acquirer spin until the
   release, with_lock's release-then-re-raise on an exception escaping
   the critical section, an uncontended acquire/release pair that
   allocates nothing and retires the paper's two instructions, and the
   holder check at release. *)

open Sim

exception Boom

let machine ?(ncpus = 2) () =
  Machine.create
    (Config.make ~ncpus
       ~geometry:{ Geometry.default with cache_lines = 0 }
       ~memory_words:65536 ())

(* Run [f] with a flight recorder installed; return [f]'s result and the
   spin count of every [Lock_acquire] event, in simulated-time order. *)
let with_spins ~ncpus f =
  let fr = Flightrec.Recorder.create ~ncpus () in
  Flightrec.Recorder.install fr;
  let r = Fun.protect ~finally:Flightrec.Recorder.uninstall f in
  let spins =
    List.filter_map
      (fun (e : Flightrec.Event.t) ->
        match e.kind with
        | Flightrec.Event.Lock_acquire { spins; _ } -> Some spins
        | _ -> None)
      (Flightrec.Recorder.events fr)
  in
  (r, spins)

let test_free_lock_taken_at_once () =
  let m = machine () in
  let l = Spinlock.init (Machine.memory m) 64 in
  let held = ref false in
  let (), spins =
    with_spins ~ncpus:2 (fun () ->
        Machine.run m
          [|
            (fun _ ->
              Spinlock.with_lock l (fun () ->
                  held := Spinlock.holder_oracle (Machine.memory m) l));
          |])
  in
  Alcotest.(check (list int)) "first attempt succeeds" [ 0 ] spins;
  Alcotest.(check bool) "lock word set while held" true !held;
  Alcotest.(check bool) "unlocked at the end" false
    (Spinlock.holder_oracle (Machine.memory m) l)

let test_held_lock_spins_until_release () =
  let m = machine () in
  let l = Spinlock.init (Machine.memory m) 64 in
  let released_at = ref 0 and entered_at = ref 0 in
  let (), spins =
    with_spins ~ncpus:2 (fun () ->
        Machine.run m
          [|
            (fun _ ->
              Spinlock.with_lock l (fun () -> Machine.work 500);
              released_at := Machine.now ());
            (fun _ ->
              Machine.work 50;
              Spinlock.with_lock l (fun () -> entered_at := Machine.now ()));
          |])
  in
  (match spins with
  | [ 0; n ] when n > 0 -> ()
  | _ ->
      Alcotest.failf "spins [%s]: want the holder at 0, the waiter above"
        (String.concat "; " (List.map string_of_int spins)));
  Alcotest.(check bool) "waiter enters after the release" true
    (!entered_at >= !released_at);
  Alcotest.(check bool) "unlocked at the end" false
    (Spinlock.holder_oracle (Machine.memory m) l)

let test_with_lock_reraises_after_release () =
  let m = machine () in
  let l = Spinlock.init (Machine.memory m) 64 in
  let raised = ref false and held_after = ref true in
  Machine.run m
    [|
      (fun _ ->
        (match Spinlock.with_lock l (fun () -> raise Boom) with
        | () -> ()
        | exception Boom -> raised := true);
        held_after := Spinlock.holder_oracle (Machine.memory m) l);
    |];
  Alcotest.(check bool) "exception re-raised" true !raised;
  Alcotest.(check bool) "released before re-raise" false !held_after

let test_with_lock_returns_value () =
  let m = machine () in
  let l = Spinlock.init (Machine.memory m) 64 in
  let v = ref 0 in
  Machine.run m [| (fun _ -> v := Spinlock.with_lock l (fun () -> 41 + 1)) |];
  Alcotest.(check int) "value returned" 42 !v;
  Alcotest.(check bool) "unlocked at the end" false
    (Spinlock.holder_oracle (Machine.memory m) l)

(* With every checker off, an uncontended pair runs inline and builds
   no closure and no flight-recorder event.  Only the two
   [Gc.minor_words] readings may allocate. *)
let test_uncontended_pair_allocates_nothing () =
  let m = machine ~ncpus:1 () in
  let l = Spinlock.init (Machine.memory m) 64 in
  let body () = () in
  let words = ref 0. in
  Machine.run m
    [|
      (fun _ ->
        for _ = 1 to 1_000 do
          Spinlock.with_lock l body
        done;
        let w0 = Gc.minor_words () in
        for _ = 1 to 100_000 do
          Spinlock.with_lock l body
        done;
        words := Gc.minor_words () -. w0);
    |];
  if !words >= 16. then
    Alcotest.failf "%.0f minor words over 100k warm acquire/release pairs"
      !words

(* The paper's lock: a CAS to take it and a plain store to release
   it.  The holder check reads host-side, so it retires nothing. *)
let test_uncontended_pair_retires_two () =
  let m = machine ~ncpus:1 () in
  let l = Spinlock.init (Machine.memory m) 64 in
  let body () = () in
  let n = ref 0 in
  Machine.run m
    [|
      (fun _ ->
        Spinlock.with_lock l body;
        let r0 = Machine.retired m ~cpu:0 in
        Spinlock.with_lock l body;
        n := Machine.retired m ~cpu:0 - r0);
    |];
  Alcotest.(check int) "the CAS and the releasing store" 2 !n

let test_release_checks_the_holder () =
  let m = machine ~ncpus:1 () in
  let l = Spinlock.init (Machine.memory m) 64 in
  match
    Machine.run m
      [| (fun _ -> Spinlock.with_lock l (fun () -> Machine.write 64 0)) |]
  with
  | () -> Alcotest.fail "a cleared lock word released without complaint"
  | exception Assert_failure (file, _, _) ->
      Alcotest.(check string) "the release check" "lib/sim/spinlock.ml" file

let suite =
  [
    Alcotest.test_case "with_lock takes a free lock at once" `Quick
      test_free_lock_taken_at_once;
    Alcotest.test_case "with_lock spins while the lock is held" `Quick
      test_held_lock_spins_until_release;
    Alcotest.test_case "with_lock releases then re-raises" `Quick
      test_with_lock_reraises_after_release;
    Alcotest.test_case "with_lock returns the body's value" `Quick
      test_with_lock_returns_value;
    Alcotest.test_case "an uncontended pair allocates nothing" `Quick
      test_uncontended_pair_allocates_nothing;
    Alcotest.test_case "an uncontended pair retires two instructions" `Quick
      test_uncontended_pair_retires_two;
    Alcotest.test_case "release checks the holder" `Quick
      test_release_checks_the_holder;
  ]
