open Sim

(* Block format (sizes in words, including the tags):
     h          header: size*2 + used bit
     h+1        next free block (when free)
     h+2        prev free block (when free)
     ...        user data (user pointer is h+1)
     h+size-1   footer: same value as header
   Minimum block is 4 words (two words of user data).

   Control layout (words 16..1023 are reserved for the benchmark
   harness by repo convention):
     1024   lock
     1032   free-list head
     1033   stats cursor (rotates through the uncacheable counters) *)

let w_fixed = 220
let stats_touches = 2
let min_block = 4

type t = {
  machine : Machine.t;
  lock : Spinlock.t;
  flhead : int;
  stats_cursor : int;
  arena_base : int;
  arena_end : int;
  uncached_base : int;
  uncached_words : int;
}

let hdr_of ~size ~used = (size * 2) + if used then 1 else 0
let size_of_hdr h = h / 2
let used_of_hdr h = h land 1 = 1

let create machine =
  let mem = Machine.memory machine in
  let cfg = Machine.config machine in
  let lock = Spinlock.init mem 1024 in
  Spinlock.register ~addr:1024 ~name:"oldkma" ~cls:"baseline.oldkma"
    ~vm_safe:false;
  let flhead = 1032 in
  let stats_cursor = 1033 in
  let arena_base = 1040 in
  let arena_end = cfg.Config.memory_words - cfg.Config.uncached_words in
  if arena_end - arena_base < 2 * min_block then
    invalid_arg "Baseline.Oldkma.create: memory too small";
  let size = arena_end - arena_base in
  Memory.set mem arena_base (hdr_of ~size ~used:false);
  Memory.set mem (arena_base + size - 1) (hdr_of ~size ~used:false);
  Memory.set mem (arena_base + 1) 0;
  Memory.set mem (arena_base + 2) 0;
  Memory.set mem flhead arena_base;
  Memory.set mem stats_cursor 0;
  {
    machine;
    lock;
    flhead;
    stats_cursor;
    arena_base;
    arena_end;
    uncached_base = arena_end;
    uncached_words = cfg.Config.uncached_words;
  }

(* The historical allocator updated event counters living in
   uncacheable space on every operation.  Rotate through the region so
   the bus cost is paid on each of them. *)
let bump_stats t =
  if t.uncached_words > 0 then begin
    let c = Machine.read t.stats_cursor in
    Machine.write t.stats_cursor ((c + 1) mod 64);
    for i = 0 to stats_touches - 1 do
      let a = t.uncached_base + (((c * stats_touches) + i) mod t.uncached_words) in
      Machine.write a (Machine.read a + 1)
    done
  end
  else Machine.work (stats_touches * 2)

(* --- free-list management (lock held) --- *)

let fl_insert t h =
  let old = Machine.read t.flhead in
  Machine.write (h + 1) old;
  Machine.write (h + 2) 0;
  if old <> 0 then Machine.write (old + 2) h;
  Machine.write t.flhead h

let fl_remove t h =
  let next = Machine.read (h + 1) in
  let prev = Machine.read (h + 2) in
  if prev = 0 then Machine.write t.flhead next
  else Machine.write (prev + 1) next;
  if next <> 0 then Machine.write (next + 2) prev

let set_tags h ~size ~used =
  Machine.write h (hdr_of ~size ~used);
  Machine.write (h + size - 1) (hdr_of ~size ~used)

let alloc t ~bytes =
  if bytes <= 0 then invalid_arg "Baseline.Oldkma.alloc: bytes <= 0";
  let user_words = max 2 ((bytes + 3) / 4) in
  let need = user_words + 2 in
  Spinlock.with_lock t.lock (fun () ->
      (* The historical allocator's fixed code sequence and event
         counters all ran under the allocator lock. *)
      Machine.work w_fixed;
      bump_stats t;
      let rec fit h =
        if h = 0 then 0
        else
          let size = size_of_hdr (Machine.read h) in
          if size >= need then begin
            fl_remove t h;
            if size - need >= min_block then begin
              (* Split: remainder stays free. *)
              let rest = h + need in
              set_tags rest ~size:(size - need) ~used:false;
              fl_insert t rest;
              set_tags h ~size:need ~used:true
            end
            else set_tags h ~size ~used:true;
            h + 1
          end
          else fit (Machine.read (h + 1))
      in
      fit (Machine.read t.flhead))

(* The size comes from the boundary tag; [bytes] is the System V
   interface's and goes unread. *)
let free_sized t ~addr ~bytes:_ =
  Spinlock.with_lock t.lock (fun () ->
      Machine.work w_fixed;
      bump_stats t;
      let h = addr - 1 in
      let hdr = Machine.read h in
      assert (used_of_hdr hdr);
      let size = size_of_hdr hdr in
      (* Coalesce with the following block. *)
      let h, size =
        let n = h + size in
        if n < t.arena_end && not (used_of_hdr (Machine.read n)) then begin
          let nsize = size_of_hdr (Machine.read n) in
          fl_remove t n;
          (h, size + nsize)
        end
        else (h, size)
      in
      (* Coalesce with the preceding block. *)
      let h, size =
        if h > t.arena_base then begin
          let pftr = Machine.read (h - 1) in
          if not (used_of_hdr pftr) then begin
            let psize = size_of_hdr pftr in
            let p = h - psize in
            fl_remove t p;
            (p, size + psize)
          end
          else (h, size)
        end
        else (h, size)
      in
      set_tags h ~size ~used:false;
      fl_insert t h)

let free_words_oracle t =
  let mem = Machine.memory t.machine in
  let rec go h acc =
    if h = 0 then acc
    else
      go (Memory.get mem (h + 1)) (acc + size_of_hdr (Memory.get mem h))
  in
  go (Memory.get mem t.flhead) 0
