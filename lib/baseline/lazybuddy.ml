open Sim

(* Classes 16 B .. 4096 B; the 4096-byte class is the buddy "chunk":
   all splitting happens inside a chunk, so buddy arithmetic only needs
   the arena aligned to the chunk size.

   Control layout (above the harness scratch region):
     1024                lock
     1032 + 8c           per-class record: fhead, inuse, lazy, glob
                         (free lists are doubly linked through the
                         blocks' first two words)
     then                per-class packed bitmaps (bit set = globally
                         free, i.e. visible to coalescing)
     then                the arena, chunk-aligned. *)

let sizes_bytes = [| 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 |]
let nclasses = Array.length sizes_bytes
let max_class = nclasses - 1
let words_of c = sizes_bytes.(c) / 4
let chunk_words = words_of max_class

let w_alloc = 10
let w_free = 10

type t = {
  machine : Machine.t;
  lock : Spinlock.t;
  cls_base : int;
  bits_base : int array; (* per-class bitmap base *)
  arena : int;
  arena_end : int;
}

(* per-class record offsets.  The free list is doubly linked with both
   head and tail pointers: lazily-freed blocks go to the head (hot,
   and visible to the retire step), globally-free blocks to the tail —
   the dual insertion of the original design. *)
let f_head = 0
let f_tail = 1
let f_inuse = 2
let f_lazy = 3
let f_glob = 4

let cls t c = t.cls_base + (c * 8)

let create machine =
  let mem = Machine.memory machine in
  let cfg = Machine.config machine in
  let lock = Spinlock.init mem 1024 in
  Spinlock.register ~addr:1024 ~name:"lazybuddy" ~cls:"baseline.lazybuddy"
    ~vm_safe:false;
  let cls_base = 1032 in
  let cursor = ref (cls_base + (nclasses * 8)) in
  (* Bitmaps sized for the whole memory span (simpler than resolving
     the arena-size/bitmap-size circularity; the overestimate is
     ~memory/32 words). *)
  let bits_base =
    Array.init nclasses (fun c ->
        let base = !cursor in
        let nbits = cfg.Config.memory_words / words_of c in
        cursor := base + ((nbits + 31) / 32) + 1;
        base)
  in
  let mem_end = cfg.Config.memory_words - cfg.Config.uncached_words in
  let arena = (!cursor + chunk_words - 1) / chunk_words * chunk_words in
  let arena_end = mem_end / chunk_words * chunk_words in
  if arena_end - arena < chunk_words then
    invalid_arg "Baseline.Lazybuddy.create: memory too small";
  let t = { machine; lock; cls_base; bits_base; arena; arena_end } in
  (* Boot: zero control words, then enter every chunk as globally free
     in the top class (host-side). *)
  for c = 0 to nclasses - 1 do
    for f = 0 to 4 do
      Memory.set mem (cls t c + f) 0
    done
  done;
  let bit_word ~c blk =
    let i = (blk - arena) / words_of c in
    (bits_base.(c) + (i / 32), 1 lsl (i mod 32))
  in
  let rec boot_chunks blk prev =
    if blk >= arena_end then prev
    else begin
      let w, m = bit_word ~c:max_class blk in
      Memory.set mem w (Memory.get mem w lor m);
      Memory.set mem blk 0 (* next *);
      Memory.set mem (blk + 1) prev;
      if prev <> 0 then Memory.set mem prev blk;
      if prev = 0 then Memory.set mem (cls t max_class + f_head) blk;
      boot_chunks (blk + chunk_words) blk
    end
  in
  let last = boot_chunks arena 0 in
  Memory.set mem (cls t max_class + f_tail) last;
  Memory.set mem
    (cls t max_class + f_glob)
    ((arena_end - arena) / chunk_words);
  t

(* --- bitmap operations (simulated, lock held) --- *)

let bit_loc t ~c blk =
  let i = (blk - t.arena) / words_of c in
  (t.bits_base.(c) + (i / 32), 1 lsl (i mod 32))

let bit_test t ~c blk =
  let w, m = bit_loc t ~c blk in
  Machine.read w land m <> 0

let bit_set t ~c blk =
  let w, m = bit_loc t ~c blk in
  Machine.write w (Machine.read w lor m)

let bit_clear t ~c blk =
  let w, m = bit_loc t ~c blk in
  Machine.write w (Machine.read w land lnot m)

(* --- doubly-linked per-class free lists with tail (lock held) --- *)

let fl_push t ~c blk =
  (* Head insert: lazy blocks. *)
  let head = cls t c + f_head in
  let old = Machine.read head in
  Machine.write blk old;
  Machine.write (blk + 1) 0;
  if old <> 0 then Machine.write (old + 1) blk
  else Machine.write (cls t c + f_tail) blk;
  Machine.write head blk

let fl_append t ~c blk =
  (* Tail insert: globally-free blocks. *)
  let tail = cls t c + f_tail in
  let old = Machine.read tail in
  Machine.write blk 0;
  Machine.write (blk + 1) old;
  if old <> 0 then Machine.write old blk
  else Machine.write (cls t c + f_head) blk;
  Machine.write tail blk

let fl_pop t ~c =
  let head = cls t c + f_head in
  let blk = Machine.read head in
  if blk <> 0 then begin
    let next = Machine.read blk in
    Machine.write head next;
    if next <> 0 then Machine.write (next + 1) 0
    else Machine.write (cls t c + f_tail) 0
  end;
  blk

let fl_remove t ~c blk =
  let next = Machine.read blk in
  let prev = Machine.read (blk + 1) in
  if prev = 0 then Machine.write (cls t c + f_head) next
  else Machine.write prev next;
  if next = 0 then Machine.write (cls t c + f_tail) prev
  else Machine.write (next + 1) prev

let ctr_add t ~c f d =
  let a = cls t c + f in
  Machine.write a (Machine.read a + d)

let push_global t ~c blk =
  bit_set t ~c blk;
  fl_append t ~c blk;
  ctr_add t ~c f_glob 1

(* Pop any free block of class [c], fixing whichever counter it was
   under (a set bitmap bit means globally free). *)
let pop_any t ~c =
  let blk = fl_pop t ~c in
  if blk = 0 then 0
  else begin
    if bit_test t ~c blk then begin
      bit_clear t ~c blk;
      ctr_add t ~c f_glob (-1)
    end
    else ctr_add t ~c f_lazy (-1);
    blk
  end

(* Get a free block of class [c], splitting larger blocks as needed;
   the split-off half becomes globally free. *)
let rec get_block t ~c =
  if c >= nclasses then 0
  else
    match pop_any t ~c with
    | 0 ->
        let big = get_block t ~c:(c + 1) in
        if big = 0 then 0
        else begin
          push_global t ~c (big + words_of c);
          big
        end
    | blk -> blk

(* Mark [blk] globally free and merge with its buddy as long as the
   buddy is also globally free. *)
let rec coalesce t ~c blk =
  if c = max_class then push_global t ~c blk
  else begin
    let bud = t.arena + ((blk - t.arena) lxor words_of c) in
    if bit_test t ~c bud then begin
      bit_clear t ~c bud;
      ctr_add t ~c f_glob (-1);
      fl_remove t ~c bud;
      coalesce t ~c:(c + 1) (min blk bud)
    end
    else push_global t ~c blk
  end

let class_of bytes =
  let rec go c =
    if c >= nclasses then None
    else if sizes_bytes.(c) >= bytes then Some c
    else go (c + 1)
  in
  if bytes <= 0 then invalid_arg "Baseline.Lazybuddy.alloc: bytes <= 0"
  else go 0

let alloc t ~bytes =
  match class_of bytes with
  | None -> 0
  | Some c ->
      Machine.work w_alloc;
      Spinlock.with_lock t.lock (fun () ->
          let blk = get_block t ~c in
          if blk <> 0 then ctr_add t ~c f_inuse 1;
          blk)

let free t ~addr ~bytes =
  match class_of bytes with
  | None -> invalid_arg "Baseline.Lazybuddy.free: bad size"
  | Some c ->
      Machine.work w_free;
      Spinlock.with_lock t.lock (fun () ->
          ctr_add t ~c f_inuse (-1);
          let inuse = Machine.read (cls t c + f_inuse) in
          let lzy = Machine.read (cls t c + f_lazy) in
          let glob = Machine.read (cls t c + f_glob) in
          let slack = inuse - (2 * lzy) - glob in
          if slack >= 2 then begin
            (* Comfortable slack: lazy free, no coalescing traffic. *)
            fl_push t ~c addr;
            ctr_add t ~c f_lazy 1
          end
          else begin
            coalesce t ~c addr;
            if slack <= 0 then begin
              (* Deep deficit: also retire one pending lazy block. *)
              let head = Machine.read (cls t c + f_head) in
              if head <> 0 && not (bit_test t ~c head) then begin
                let blk = fl_pop t ~c in
                ctr_add t ~c f_lazy (-1);
                coalesce t ~c blk
              end
            end
          end)

(* --- host-side oracles --- *)

let counters_oracle t ~si =
  let mem = Machine.memory t.machine in
  ( Memory.get mem (cls t si + f_inuse),
    Memory.get mem (cls t si + f_lazy),
    Memory.get mem (cls t si + f_glob) )

let largest_free_oracle t =
  let mem = Machine.memory t.machine in
  let rec go c best =
    if c >= nclasses then best
    else
      go (c + 1)
        (if Memory.get mem (cls t c + f_glob) > 0 then sizes_bytes.(c)
         else best)
  in
  go 0 0

let total_free_words_oracle t =
  let mem = Machine.memory t.machine in
  let rec go c acc =
    if c >= nclasses then acc
    else
      go (c + 1)
        (acc
        + (Memory.get mem (cls t c + f_lazy)
          + Memory.get mem (cls t c + f_glob))
          * words_of c)
  in
  go 0 0
