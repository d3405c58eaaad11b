open Kma

(* Freelist operations run on the simulated machine; use a bare machine
   and pick arbitrary scratch addresses. *)

let head = 8
let blk i = 64 + (8 * i)

(* One pop: a block, or 0 on an empty list. *)
let pop ~head = fst (Freelist.take_n ~head ~n:1)

let test_push_pop () =
  let m = Util.machine () in
  let out =
    Util.on_cpu m (fun () ->
        Freelist.push ~head (blk 0);
        Freelist.push ~head (blk 1);
        Freelist.push ~head (blk 2);
        let p1 = pop ~head in
        let p2 = pop ~head in
        let p3 = pop ~head in
        let p4 = pop ~head in
        [ p1; p2; p3; p4 ])
  in
  Alcotest.(check (list int)) "LIFO order" [ blk 2; blk 1; blk 0; 0 ] out

let test_take_n () =
  let m = Util.machine () in
  let taken, rest =
    Util.on_cpu m (fun () ->
        for i = 0 to 4 do
          Freelist.push ~head (blk i)
        done;
        let h, n = Freelist.take_n ~head ~n:3 in
        let rec collect a acc =
          if a = 0 then List.rev acc
          else collect (Sim.Machine.read (a + Freelist.link)) (a :: acc)
        in
        ((h, n, collect h []), Sim.Machine.read head))
  in
  let h, n, chain = taken in
  Alcotest.(check int) "count" 3 n;
  (* take_n pops 4,3,2 and re-chains them; the last popped heads the
     result. *)
  Alcotest.(check (list int)) "chain" [ blk 2; blk 3; blk 4 ] chain;
  Alcotest.(check bool) "head nonzero" true (h <> 0);
  Alcotest.(check int) "remainder" (blk 1) rest

let test_take_n_short () =
  let m = Util.machine () in
  let n =
    Util.on_cpu m (fun () ->
        Freelist.push ~head (blk 0);
        snd (Freelist.take_n ~head ~n:5))
  in
  Alcotest.(check int) "takes what exists" 1 n

let test_iter_chain_allows_relink () =
  let m = Util.machine () in
  let visited =
    Util.on_cpu m (fun () ->
        for i = 0 to 2 do
          Freelist.push ~head (blk i)
        done;
        let acc = ref [] in
        Freelist.iter_chain (Sim.Machine.read head) (fun a ~next:_ ->
            (* Clobber the link word, as the page layer does. *)
            Sim.Machine.write (a + Freelist.link) 999;
            acc := a :: !acc);
        List.rev !acc)
  in
  Alcotest.(check (list int)) "visits all despite clobbering"
    [ blk 2; blk 1; blk 0 ] visited

let test_length_oracle () =
  let m = Util.machine () in
  Util.on_cpu m (fun () ->
      for i = 0 to 9 do
        Freelist.push ~head (blk i)
      done);
  let mem = Sim.Machine.memory m in
  Alcotest.(check int) "ten nodes" 10
    (Freelist.length_oracle mem (Sim.Memory.get mem head))

let prop_push_pop_roundtrip =
  QCheck.Test.make ~name:"n pushes then n pops drain the list" ~count:100
    QCheck.(int_range 0 50)
    (fun n ->
      let m = Util.machine () in
      Util.on_cpu m (fun () ->
          for i = 0 to n - 1 do
            Freelist.push ~head (blk i)
          done;
          let rec drain k = if pop ~head = 0 then k else drain (k + 1) in
          drain 0 = n))

let suite =
  [
    Alcotest.test_case "push/pop LIFO" `Quick test_push_pop;
    Alcotest.test_case "take_n" `Quick test_take_n;
    Alcotest.test_case "take_n short list" `Quick test_take_n_short;
    Alcotest.test_case "iter_chain tolerates relinking" `Quick
      test_iter_chain_allows_relink;
    Alcotest.test_case "length_oracle" `Quick test_length_oracle;
    QCheck_alcotest.to_alcotest prop_push_pop_roundtrip;
  ]
