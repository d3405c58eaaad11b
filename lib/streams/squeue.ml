open Sim

(* Queue record (32 bytes): lock(0) head(1) tail(2). *)
let q_bytes = 32
let q_lock = 0
let q_head = 1
let q_tail = 2

type t = { base : int }

let create buf =
  let a = Buf.allocator buf in
  let base = a.Baseline.Allocator.alloc ~bytes:q_bytes in
  if base = 0 then None
  else begin
    Machine.write (base + q_lock) 0;
    Machine.write (base + q_head) 0;
    Machine.write (base + q_tail) 0;
    Some { base }
  end

(* The spinlock word lives inside the allocated record, cleared by
   [create].  Jittered test-and-set; Sim.Spinlock's [acquire] says why
   the simulation spins on the atomic itself. *)
let with_q_lock t f =
  let lock_addr = t.base + q_lock in
  ignore (Machine.spin_cas lock_addr ~expected:0 ~desired:1);
  let v = f () in
  Machine.write lock_addr 0;
  v

let putq t msg =
  Machine.write (msg + Msg.b_next) 0;
  with_q_lock t (fun () ->
      let tail = Machine.read (t.base + q_tail) in
      if tail = 0 then Machine.write (t.base + q_head) msg
      else Machine.write (tail + Msg.b_next) msg;
      Machine.write (msg + Msg.b_prev) tail;
      Machine.write (t.base + q_tail) msg)

let getq t =
  with_q_lock t (fun () ->
      let head = Machine.read (t.base + q_head) in
      if head = 0 then 0
      else begin
        let next = Machine.read (head + Msg.b_next) in
        Machine.write (t.base + q_head) next;
        if next = 0 then Machine.write (t.base + q_tail) 0
        else Machine.write (next + Msg.b_prev) 0;
        Machine.write (head + Msg.b_next) 0;
        head
      end)
