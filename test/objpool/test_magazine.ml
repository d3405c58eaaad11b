open Objpool

let empty m =
  Alcotest.check_raises "empty" Magazine.Empty (fun () ->
      ignore (Magazine.get m))

let test_empty_get () =
  let m = Magazine.create ~target:3 in
  empty m;
  Alcotest.(check int) "size" 0 (Magazine.size_oracle m)

let test_put_get_lifo () =
  let m = Magazine.create ~target:3 in
  List.iter (fun i -> ignore (Magazine.put m i)) [ 1; 2; 3 ];
  Alcotest.(check int) "lifo" 3 (Magazine.get m);
  Alcotest.(check int) "lifo" 2 (Magazine.get m);
  Alcotest.(check bool) "invariant" true (Magazine.check_oracle m)

let test_overflow_slides_then_flushes () =
  let m = Magazine.create ~target:2 in
  Alcotest.(check bool) "p1" true (Magazine.put m 1 = `Ok);
  Alcotest.(check bool) "p2" true (Magazine.put m 2 = `Ok);
  (* main full, aux empty: slide, no flush. *)
  Alcotest.(check bool) "p3 slides" true (Magazine.put m 3 = `Ok);
  Alcotest.(check bool) "p4" true (Magazine.put m 4 = `Ok);
  (* main full again, aux full: flush aux. *)
  (match Magazine.put m 5 with
  | `Flush batch ->
      Alcotest.(check (list int)) "target-sized batch" [ 2; 1 ] batch
  | `Ok -> Alcotest.fail "expected flush");
  Alcotest.(check int) "occupancy bounded" 3 (Magazine.size_oracle m);
  Alcotest.(check bool) "invariant" true (Magazine.check_oracle m)

let test_get_slides_aux () =
  let m = Magazine.create ~target:2 in
  List.iter (fun i -> ignore (Magazine.put m i)) [ 1; 2; 3 ];
  (* main = [3], aux = [2;1] *)
  Alcotest.(check int) "main first" 3 (Magazine.get m);
  Alcotest.(check int) "aux slides" 2 (Magazine.get m);
  Alcotest.(check int) "aux tail" 1 (Magazine.get m);
  empty m

let test_install () =
  let m = Magazine.create ~target:3 in
  Alcotest.(check (list int)) "fits" [] (Magazine.install m [ 7; 8 ]);
  Alcotest.(check int) "installed" 7 (Magazine.get m);
  (match Magazine.install m [ 9 ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let m2 = Magazine.create ~target:2 in
  Alcotest.(check (list int)) "excess returned" [ 3 ]
    (Magazine.install m2 [ 1; 2; 3 ]);
  Alcotest.(check int) "head first" 1 (Magazine.get m2);
  Alcotest.(check int) "then the rest" 2 (Magazine.get m2);
  Alcotest.(check bool) "invariant" true (Magazine.check_oracle m2)

let test_drain () =
  let m = Magazine.create ~target:2 in
  List.iter (fun i -> ignore (Magazine.put m i)) [ 1; 2; 3 ];
  Alcotest.(check int) "drained all" 3 (List.length (Magazine.drain m));
  Alcotest.(check int) "empty after" 0 (Magazine.size_oracle m)

let prop_bounded_and_conserving =
  QCheck.Test.make ~name:"magazine bounded; puts - gets = size" ~count:300
    QCheck.(pair (int_range 1 8) (small_list bool))
    (fun (target, ops) ->
      let m = Magazine.create ~target in
      let puts = ref 0 and gets = ref 0 and flushed = ref 0 in
      List.iteri
        (fun i is_put ->
          if is_put then begin
            incr puts;
            match Magazine.put m i with
            | `Ok -> ()
            | `Flush b -> flushed := !flushed + List.length b
          end
          else
            match Magazine.get m with
            | _ -> incr gets
            | exception Magazine.Empty -> ())
        ops;
      Magazine.check_oracle m
      && Magazine.size_oracle m <= 2 * target
      && Magazine.size_oracle m = !puts - !gets - !flushed)

let suite =
  [
    Alcotest.test_case "get on empty" `Quick test_empty_get;
    Alcotest.test_case "put/get LIFO" `Quick test_put_get_lifo;
    Alcotest.test_case "overflow slides then flushes" `Quick
      test_overflow_slides_then_flushes;
    Alcotest.test_case "get slides aux into main" `Quick test_get_slides_aux;
    Alcotest.test_case "install constraints" `Quick test_install;
    Alcotest.test_case "drain" `Quick test_drain;
    QCheck_alcotest.to_alcotest prop_bounded_and_conserving;
  ]
