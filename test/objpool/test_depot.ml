open Objpool

(* The depot's data-path operations also report contention; these
   single-domain tests look only at the result. *)
let get d = fst (Depot.get d)
let put d batch = fst (Depot.put d batch)
let put_partial d items = ignore (Depot.put_partial d items)

let test_get_put () =
  let d = Depot.create ~target:2 ~max_batches:2 in
  Alcotest.(check bool) "empty" true (get d = None);
  Alcotest.(check bool) "kept" true (put d [ 1; 2 ] = `Kept);
  Alcotest.(check bool) "kept2" true (put d [ 3; 4 ] = `Kept);
  Alcotest.(check bool) "dropped at bound" true (put d [ 5 ] = `Dropped);
  Alcotest.(check int) "stock" 2 (Depot.batches d);
  Alcotest.(check bool) "LIFO batch" true (get d = Some [ 3; 4 ]);
  Alcotest.(check int) "stock down" 1 (Depot.batches d)

let test_put_partial_feeds_get () =
  let d = Depot.create ~target:4 ~max_batches:4 in
  put_partial d [ 1; 2; 3 ];
  (match get d with
  | Some items -> Alcotest.(check int) "loose served" 3 (List.length items)
  | None -> Alcotest.fail "expected loose items");
  Alcotest.(check bool) "then empty" true (get d = None)

let test_drain () =
  let d = Depot.create ~target:4 ~max_batches:4 in
  ignore (put d [ 1; 2 ]);
  put_partial d [ 3 ];
  Alcotest.(check int) "all out" 3 (List.length (Depot.drain d));
  Alcotest.(check int) "empty" 0 (Depot.batches d)

(* Two racing grows can reach the depot out of order; the later,
   smaller update must not undo the larger one. *)
let test_geometry_only_grows () =
  let d = Depot.create ~target:2 ~max_batches:1 in
  Depot.set_geometry d ~target:8 ~max_batches:4;
  Depot.set_geometry d ~target:4 ~max_batches:2;
  for i = 1 to 4 do
    Alcotest.(check bool) (Printf.sprintf "batch %d kept" i) true
      (put d [ i ] = `Kept)
  done;
  Alcotest.(check bool) "bound stays 4" true (put d [ 5 ] = `Dropped);
  ignore (Depot.drain d);
  (* Eight loose items regroup into one batch at target 8, two at 4. *)
  put_partial d (List.init 8 Fun.id);
  Alcotest.(check int) "target stays 8" 1 (Depot.batches d)

(* Concurrent hammering from 4 domains: every batch put is either
   dropped (counted) or eventually gettable; nothing is duplicated. *)
let test_concurrent_integrity () =
  let d = Depot.create ~target:1 ~max_batches:8 in
  let per_domain = 500 in
  let ndomains = 4 in
  let dropped = Atomic.make 0 in
  let gotten = Atomic.make 0 in
  let domains =
    List.init ndomains (fun di ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              let v = (di * per_domain) + i in
              (match put d [ v ] with
              | `Kept -> ()
              | `Dropped -> Atomic.incr dropped);
              match get d with
              | Some b -> Atomic.fetch_and_add gotten (List.length b) |> ignore
              | None -> ()
            done))
  in
  List.iter Domain.join domains;
  let leftover = List.length (Depot.drain d) in
  Alcotest.(check int) "puts = drops + gets + leftover"
    (ndomains * per_domain)
    (Atomic.get dropped + Atomic.get gotten + leftover)

let suite =
  [
    Alcotest.test_case "get/put with bound" `Quick test_get_put;
    Alcotest.test_case "put_partial feeds get" `Quick
      test_put_partial_feeds_get;
    Alcotest.test_case "drain" `Quick test_drain;
    Alcotest.test_case "geometry only grows" `Quick test_geometry_only_grows;
    Alcotest.test_case "4-domain integrity" `Quick test_concurrent_integrity;
  ]
