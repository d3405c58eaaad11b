(* Direct unit tests for Sim.Spinlock's previously untested paths:
   try_acquire (single-attempt semantics, success and failure) and
   with_lock's release-then-re-raise on an exception escaping the
   critical section. *)

open Sim

exception Boom

let machine ?(ncpus = 2) () =
  Machine.create
    (Config.make ~ncpus
       ~geometry:{ Geometry.default with cache_lines = 0 }
       ~memory_words:65536 ())

let test_try_acquire_free () =
  let m = machine () in
  let l = Spinlock.init (Machine.memory m) 64 in
  let got = ref false and held = ref false in
  Machine.run m
    [|
      (fun _ ->
        got := Spinlock.try_acquire l;
        held := Machine.read (Spinlock.addr l) = Spinlock.locked_value;
        Spinlock.release l);
    |];
  Alcotest.(check bool) "acquired a free lock" true !got;
  Alcotest.(check bool) "lock word set while held" true !held;
  Alcotest.(check bool) "unlocked at the end" false
    (Spinlock.holder_oracle (Machine.memory m) l)

let test_try_acquire_held () =
  let m = machine () in
  let l = Spinlock.init (Machine.memory m) 64 in
  let second = ref true in
  Machine.run m
    [|
      (fun _ ->
        ignore (Spinlock.try_acquire l);
        (* Still held: a second single attempt must fail, not spin. *)
        second := Spinlock.try_acquire l;
        Spinlock.release l);
    |];
  Alcotest.(check bool) "second attempt fails while held" false !second;
  Alcotest.(check bool) "unlocked at the end" false
    (Spinlock.holder_oracle (Machine.memory m) l)

let test_with_lock_reraises_after_release () =
  let m = machine () in
  let l = Spinlock.init (Machine.memory m) 64 in
  let raised = ref false and reacquired = ref false in
  Machine.run m
    [|
      (fun _ ->
        (match Spinlock.with_lock l (fun () -> raise Boom) with
        | () -> ()
        | exception Boom -> raised := true);
        (* The lock must have been released on the exception path: a
           single fresh attempt succeeds immediately. *)
        reacquired := Spinlock.try_acquire l;
        Spinlock.release l);
    |];
  Alcotest.(check bool) "exception re-raised" true !raised;
  Alcotest.(check bool) "released before re-raise" true !reacquired;
  Alcotest.(check bool) "unlocked at the end" false
    (Spinlock.holder_oracle (Machine.memory m) l)

let test_with_lock_returns_value () =
  let m = machine () in
  let l = Spinlock.init (Machine.memory m) 64 in
  let v = ref 0 in
  Machine.run m [| (fun _ -> v := Spinlock.with_lock l (fun () -> 41 + 1)) |];
  Alcotest.(check int) "value returned" 42 !v;
  Alcotest.(check bool) "unlocked at the end" false
    (Spinlock.holder_oracle (Machine.memory m) l)

let suite =
  [
    Alcotest.test_case "try_acquire takes a free lock" `Quick
      test_try_acquire_free;
    Alcotest.test_case "try_acquire fails on a held lock (one attempt)"
      `Quick test_try_acquire_held;
    Alcotest.test_case "with_lock releases then re-raises" `Quick
      test_with_lock_reraises_after_release;
    Alcotest.test_case "with_lock returns the body's value" `Quick
      test_with_lock_returns_value;
  ]
