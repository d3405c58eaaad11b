open Sim

type mode = NL | CR | CW | PR | PW | EX

let mode_index = function
  | NL -> 0
  | CR -> 1
  | CW -> 2
  | PR -> 3
  | PW -> 4
  | EX -> 5

(* The standard DLM compatibility matrix, rows/columns in
   NL CR CW PR PW EX order. *)
let compat_matrix =
  [|
    [| true; true; true; true; true; true |];
    [| true; true; true; true; true; false |];
    [| true; true; true; false; false; false |];
    [| true; true; false; true; false; false |];
    [| true; true; false; false; false; false |];
    [| true; false; false; false; false; false |];
  |]

let compatible_oracle a b = compat_matrix.(mode_index a).(mode_index b)

(* Resource table: one 4096-byte block = 512 buckets x (lock, head).
   Resource block (64 bytes = 16 words):
     0 id  1 next  2 grant-list head  5..10 granted count per mode
     11 total locks
   Lock block (32 bytes = 8 words):
     0 resource  1 next  2 mode  4 client
   The sizes set E6's allocation mix, so the words neither block uses
   stay reserved. *)

let table_bytes = 4096
let nbuckets = 512
let rsb_bytes = 64
let lkb_bytes = 32

let r_id = 0
let r_next = 1
let r_grant = 2
let r_counts = 5
let r_nlocks = 11

let l_resource = 0
let l_next = 1
let l_mode = 2
let l_client = 4

type t = {
  a : Baseline.Allocator.t;
  table : int;
  mutable nresources : int;
  mutable nlocks : int;
}

let create a =
  let table = a.Baseline.Allocator.alloc ~bytes:table_bytes in
  if table = 0 then None
  else begin
    for i = 0 to (2 * nbuckets) - 1 do
      Machine.write (table + i) 0
    done;
    Some { a; table; nresources = 0; nlocks = 0 }
  end

let bucket_of t ~resource =
  (* Multiplicative hash; the bucket holds [lock, head]. *)
  let h = resource * 0x9E3779B1 land max_int in
  t.table + (h mod nbuckets * 2)

let with_bucket bucket f =
  let lock_addr = bucket in
  (* Jittered test-and-set; see Sim.Spinlock.with_lock. *)
  ignore (Machine.spin_cas lock_addr ~expected:0 ~desired:1);
  let v = f () in
  Machine.write lock_addr 0;
  v

(* --- resource lookup/creation (bucket lock held) --- *)

let find_resource bucket ~resource =
  let rec go rsb =
    if rsb = 0 then 0
    else if Machine.read (rsb + r_id) = resource then rsb
    else go (Machine.read (rsb + r_next))
  in
  go (Machine.read (bucket + 1))

let make_resource t bucket ~resource =
  let rsb = t.a.Baseline.Allocator.alloc ~bytes:rsb_bytes in
  if rsb = 0 then 0
  else begin
    Machine.write (rsb + r_id) resource;
    Machine.write (rsb + r_next) (Machine.read (bucket + 1));
    Machine.write (rsb + r_grant) 0;
    for i = 0 to 5 do
      Machine.write (rsb + r_counts + i) 0
    done;
    Machine.write (rsb + r_nlocks) 0;
    Machine.write (bucket + 1) rsb;
    t.nresources <- t.nresources + 1;
    rsb
  end

let drop_resource t bucket rsb =
  let rec unlink prev cur =
    if cur = rsb then
      if prev = 0 then Machine.write (bucket + 1) (Machine.read (cur + r_next))
      else Machine.write (prev + r_next) (Machine.read (cur + r_next))
    else unlink cur (Machine.read (cur + r_next))
  in
  unlink 0 (Machine.read (bucket + 1));
  t.a.Baseline.Allocator.free ~addr:rsb ~bytes:rsb_bytes;
  t.nresources <- t.nresources - 1

(* Is [mode] compatible with everything currently granted on [rsb]? *)
let grantable rsb ~mode =
  let row = compat_matrix.(mode_index mode) in
  let rec go i =
    if i > 5 then true
    else if Machine.read (rsb + r_counts + i) > 0 && not row.(i) then false
    else go (i + 1)
  in
  go 0

let add_granted rsb lkb ~mode =
  Machine.write (lkb + l_next) (Machine.read (rsb + r_grant));
  Machine.write (rsb + r_grant) lkb;
  let c = rsb + r_counts + mode_index mode in
  Machine.write c (Machine.read c + 1)

let new_lkb t rsb ~mode ~client =
  let lkb = t.a.Baseline.Allocator.alloc ~bytes:lkb_bytes in
  if lkb = 0 then 0
  else begin
    Machine.write (lkb + l_resource) rsb;
    Machine.write (lkb + l_mode) (mode_index mode);
    Machine.write (lkb + l_client) client;
    Machine.write (rsb + r_nlocks) (Machine.read (rsb + r_nlocks) + 1);
    t.nlocks <- t.nlocks + 1;
    lkb
  end

let try_lock t ~resource ~mode ~client =
  let bucket = bucket_of t ~resource in
  with_bucket bucket (fun () ->
      let rsb =
        match find_resource bucket ~resource with
        | 0 -> make_resource t bucket ~resource
        | rsb -> rsb
      in
      if rsb = 0 then 0
      else if grantable rsb ~mode then begin
        let lkb = new_lkb t rsb ~mode ~client in
        if lkb <> 0 then add_granted rsb lkb ~mode;
        lkb
      end
      else begin
        (* Resource may have been created just for this failed probe;
           drop it again if it carries no locks. *)
        if Machine.read (rsb + r_nlocks) = 0 then drop_resource t bucket rsb;
        0
      end)

(* Unlink [lkb] from the grant list (bucket lock held); the check
   catches an unlock of a block that is not on it. *)
let remove_granted rsb lkb =
  let rec unlink prev cur =
    assert (cur <> 0);
    if cur = lkb then
      if prev = 0 then
        Machine.write (rsb + r_grant) (Machine.read (cur + l_next))
      else Machine.write (prev + l_next) (Machine.read (cur + l_next))
    else unlink cur (Machine.read (cur + l_next))
  in
  unlink 0 (Machine.read (rsb + r_grant))

let unlock t lkb =
  let rsb = Machine.read (lkb + l_resource) in
  let bucket = bucket_of t ~resource:(Machine.read (rsb + r_id)) in
  with_bucket bucket (fun () ->
      let mi = Machine.read (lkb + l_mode) in
      remove_granted rsb lkb;
      let c = rsb + r_counts + mi in
      Machine.write c (Machine.read c - 1);
      t.a.Baseline.Allocator.free ~addr:lkb ~bytes:lkb_bytes;
      t.nlocks <- t.nlocks - 1;
      Machine.write (rsb + r_nlocks) (Machine.read (rsb + r_nlocks) - 1);
      if Machine.read (rsb + r_nlocks) = 0 then drop_resource t bucket rsb)

let resources_oracle t = t.nresources
let locks_oracle t = t.nlocks
