open Sim

(* Control layout (word addresses; words 16..1023 are reserved for the
   benchmark harness by repo convention):
   1024       lock
   1032..+n   freelist heads, one word per size class — deliberately
              packed into as few cache lines as possible, as the
              historical allocator's static arrays were
   then       arena cursor (next uncarved page), arena end
   then       kmemsizes, one word per arena page (~size class + 1; 0 =
              never carved)
   then       the page arena, page-aligned. *)

let sizes_bytes = [| 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 |]
let nsizes = Array.length sizes_bytes
let page_words = 1024
let page_shift = 10

(* Straight-line charges: the MK fast path is a few instructions (the
   paper credits it with a 9-VAX-instruction allocation); the inlined
   binary search and carve loop are charged explicitly. *)
let w_alloc = 6
let w_free = 8
let w_carve_setup = 60 (* page-grab bookkeeping in the VM system *)

type t = {
  machine : Machine.t;
  lock : Spinlock.t;
  heads : int; (* base address of the freelist-head array *)
  cursor : int;
  arena_end_w : int;
  kmemsizes : int;
  arena_base : int;
}

let create machine =
  let mem = Machine.memory machine in
  let cfg = Machine.config machine in
  let heads = 1032 in
  let cursor = heads + nsizes in
  let arena_end_w = cursor + 1 in
  let kmemsizes = arena_end_w + 1 in
  let mem_end = cfg.Config.memory_words - cfg.Config.uncached_words in
  (* Pages the arena could hold if kmemsizes were free; round up, the
     arena base then leaves enough room. *)
  let max_pages = (mem_end - kmemsizes) / page_words in
  let arena_base =
    (kmemsizes + max_pages + page_words - 1) / page_words * page_words
  in
  let arena_end = mem_end / page_words * page_words in
  if arena_end <= arena_base then
    invalid_arg "Baseline.Mk.create: memory too small";
  let lock = Spinlock.init mem 1024 in
  Spinlock.register ~addr:1024 ~name:"mk" ~cls:"baseline.mk" ~vm_safe:false;
  for si = 0 to nsizes - 1 do
    Memory.set mem (heads + si) 0
  done;
  Memory.set mem cursor arena_base;
  Memory.set mem arena_end_w arena_end;
  { machine; lock; heads; cursor; arena_end_w; kmemsizes; arena_base }

let size_index bytes =
  let rec go si = if sizes_bytes.(si) >= bytes then si else go (si + 1) in
  if bytes > sizes_bytes.(nsizes - 1) then None else Some (go 0)

(* Carve a fresh page into blocks of class [si]; lock held.  Returns the
   head of the new chain, or 0 when the arena is spent. *)
let carve t si =
  Machine.work w_carve_setup;
  let page = Machine.read t.cursor in
  if page >= Machine.read t.arena_end_w then 0
  else begin
    Machine.write t.cursor (page + page_words);
    Machine.write
      (t.kmemsizes + ((page - t.arena_base) lsr page_shift))
      (si + 1);
    let words = sizes_bytes.(si) / 4 in
    let n = page_words / words in
    let rec chain i acc =
      if i < 0 then acc
      else begin
        let blk = page + (i * words) in
        Machine.write blk acc;
        chain (i - 1) blk
      end
    in
    chain (n - 1) 0
  end

let alloc t ~bytes =
  match size_index bytes with
  | None -> 0
  | Some si ->
      Machine.work w_alloc;
      Spinlock.with_lock t.lock (fun () ->
          let head = t.heads + si in
          let a = Machine.read head in
          if a <> 0 then begin
            Machine.write head (Machine.read a);
            a
          end
          else
            let chain = carve t si in
            if chain = 0 then 0
            else begin
              Machine.write head (Machine.read chain);
              chain
            end)

let free t ~addr =
  Machine.work w_free;
  Spinlock.with_lock t.lock (fun () ->
      let si =
        Machine.read (t.kmemsizes + ((addr - t.arena_base) lsr page_shift))
        - 1
      in
      assert (si >= 0 && si < nsizes);
      let head = t.heads + si in
      Machine.write addr (Machine.read head);
      Machine.write head addr)

let free_sized t ~addr ~bytes:_ = free t ~addr

(* Host-side oracle: pages permanently carved out of the arena (mk
   never returns one). *)
let pages_carved_oracle t =
  let mem = Machine.memory t.machine in
  (Memory.get mem t.cursor - t.arena_base) / page_words
