type kind = Load | Store | Rmw
type owner = Cpu of int | Read_only

exception Ownership_violation of string

type stats = {
  mutable loads : int;
  mutable stores : int;
  mutable rmws : int;
  mutable hits : int;
  mutable misses : int;
  mutable c2c : int;
  mutable upgrades : int;
  mutable invalidations : int;
  mutable evictions : int;
  mutable remote : int;
  mutable stall_cycles : int;
}

(* Insertion-order queue of line indices, one per cache set, as a
   chunked deque.  Replaces the Queue.t (allocation per push) and the
   growable ring (unbounded doubling copies) of earlier revisions: a
   contended line is re-inserted on every steal while eviction may
   never run, so the queue grows with the steal count and any
   copy-on-grow scheme pays O(n) again and again.  Chunks are pushed
   at the tail and garbage-collected as the head drains; entries for
   lines since stolen by another CPU are skipped lazily at eviction
   time, which is why the queue can transiently hold more than [ways]
   entries.

   A queue starts on [no_chunk], a full chunk it never writes, so a
   set takes no host memory until its first insert: a machine with
   many sets per CPU (256 when direct-mapped) pays only for the sets
   its run touches.  Chunks are small for the same reason. *)
type chunk = { data : int array; mutable next : chunk option }

let chunk_words = 256
let no_chunk = { data = [||]; next = None }

type fifo = {
  mutable head : chunk;
  mutable head_idx : int;
  mutable tail : chunk;
  mutable tail_idx : int;
  mutable len : int;
}

let fifo_create () =
  {
    head = no_chunk;
    head_idx = chunk_words;
    tail = no_chunk;
    tail_idx = chunk_words;
    len = 0;
  }

(* On a full tail, an empty queue (the head has caught up with the
   tail) restarts on the new chunk instead of linking it: that is how
   a queue leaves [no_chunk], which must never be written. *)
let fifo_push f x =
  if f.tail_idx = chunk_words then begin
    let c = { data = Array.make chunk_words 0; next = None } in
    if f.len = 0 then begin
      f.head <- c;
      f.head_idx <- 0
    end
    else f.tail.next <- Some c;
    f.tail <- c;
    f.tail_idx <- 0
  end;
  Array.unsafe_set f.tail.data f.tail_idx x;
  f.tail_idx <- f.tail_idx + 1;
  f.len <- f.len + 1

(* Pop the oldest entry; the caller checks [len > 0]. *)
let fifo_pop f =
  if f.head_idx = chunk_words then begin
    (match f.head.next with
    | Some c -> f.head <- c
    | None -> assert false);
    f.head_idx <- 0
  end;
  let x = Array.unsafe_get f.head.data f.head_idx in
  f.head_idx <- f.head_idx + 1;
  f.len <- f.len - 1;
  x

type percpu = {
  st : stats;
  fifos : fifo array; (* one insertion-order ring per set *)
  set_nres : int array; (* resident lines per set *)
  mutable nresident : int;
}

(* Line directory as flat arrays indexed by line number (the address
   space is small and dense, so a hash table on the per-operation path
   only added hashing and allocation).  The sharer set of line [l] is
   the [swords] words at [sharers.(l * swords) ..]: a width-independent
   bitset, 32 CPUs per word, so CPU [c]'s copy is bit [c land 31] of
   word [c lsr 5].  A single-int bitmask here overflowed 63-bit OCaml
   ints at ncpus = 63/64 (CPU 63's bit was silently 0); the word array
   keeps the flat hot path — one load and mask for the membership test
   that dominates — while scaling to any Config.max_cpus.  [dirty.(l)]
   is the CPU holding [l] modified, or -1.  Invariant: dirty >= 0
   implies the sharer set is exactly that CPU. *)
type t = {
  cfg : Config.t;
  geometry : Geometry.t; (* [cfg.geometry]: the costs every access reads *)
  line_shift : int;
  set_mask : int; (* line land set_mask = the line's set index *)
  set_capacity : int; (* resident lines allowed per set (ways, or the
                         whole cache when fully associative) *)
  uncached_base : int; (* addresses at or above this bypass the cache *)
  swords : int; (* sharer words per line: (ncpus + 31) / 32 *)
  sharers : int array;
  dirty : int array;
  mutable owner : int array;
      (* [owner.(l)]: the only CPU that may access line [l], [read_only]
         when nobody may store to it, [shared] (the default, and every
         line past the array's end) otherwise.  Declared host-side at
         boot by {!own}, which grows the array only as far as the
         highest declared line (declarations cover a small control
         region, not the whole memory); checked on the miss and store
         paths of [access] so the load-hit path pays nothing. *)
  cpus : percpu array;
  (* Two-level NUMA topology (inert at nnodes = 1, the flat default):
     [node_of.(cpu)] from Config.node_of, memory homes by address
     range — line [l] lives on node [l / lines_per_node]. *)
  nnodes : int;
  node_of : int array;
  lines_per_node : int;
  mutable trace :
    (cpu:int -> addr:Memory.addr -> kind -> cost:int -> unit) option;
}

let fresh_stats () =
  {
    loads = 0;
    stores = 0;
    rmws = 0;
    hits = 0;
    misses = 0;
    c2c = 0;
    upgrades = 0;
    invalidations = 0;
    evictions = 0;
    remote = 0;
    stall_cycles = 0;
  }

let shared = -1
let read_only = -2

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* Cycles per access to the uncacheable region, hit or not. *)
let uncached_cost = 40

let create (cfg : Config.t) =
  let g = cfg.geometry in
  let nlines = cfg.memory_words / g.line_words in
  (* ways = 0 is the fully-associative paper-era default: one set, one
     FIFO over the whole cache.  Geometry validation guarantees a
     power-of-two set count otherwise. *)
  let nsets = if g.ways = 0 then 1 else g.cache_lines / g.ways in
  let set_capacity = if g.ways = 0 then g.cache_lines else g.ways in
  let swords = (cfg.ncpus + 31) / 32 in
  {
    cfg;
    geometry = g;
    line_shift = log2 g.line_words;
    set_mask = nsets - 1;
    set_capacity;
    uncached_base = cfg.memory_words - cfg.uncached_words;
    swords;
    sharers = Array.make (nlines * swords) 0;
    dirty = Array.make nlines (-1);
    owner = [||];
    cpus =
      Array.init cfg.ncpus (fun _ ->
          {
            st = fresh_stats ();
            fifos = Array.init nsets (fun _ -> fifo_create ());
            set_nres = Array.make nsets 0;
            nresident = 0;
          });
    nnodes = g.nodes;
    node_of = Array.init cfg.ncpus (fun cpu -> Config.node_of cfg cpu);
    lines_per_node = (nlines + g.nodes - 1) / g.nodes;
    trace = None;
  }

(* Word index and in-word bit of a CPU in a sharer set. *)
let[@inline] sh_word cpu = cpu lsr 5
let[@inline] sh_bit cpu = 1 lsl (cpu land 31)

(* Index of the lowest set bit, by binary search (no ctz instruction
   from OCaml): 6 compares instead of a shift-and-test walk over all
   lower bit positions. *)
let[@inline] lsb_index b =
  let i = ref 0 and b = ref b in
  if !b land 0xFFFFFFFF = 0 then begin i := 32; b := !b lsr 32 end;
  if !b land 0xFFFF = 0 then begin i := !i + 16; b := !b lsr 16 end;
  if !b land 0xFF = 0 then begin i := !i + 8; b := !b lsr 8 end;
  if !b land 0xF = 0 then begin i := !i + 4; b := !b lsr 4 end;
  if !b land 0x3 = 0 then begin i := !i + 2; b := !b lsr 2 end;
  if !b land 0x1 = 0 then incr i;
  !i

(* [line] and the set index are in bounds by construction ([line] was
   derived from an address the caller has already accessed through
   [t.sharers]; sets are [line land set_mask]), so the per-access hot
   path below uses unchecked accesses throughout. *)
let[@inline] is_sharer t line cpu =
  Array.unsafe_get t.sharers ((line * t.swords) + sh_word cpu)
  land sh_bit cpu
  <> 0

(* [cpu] is the one and only holder of [line]. *)
let[@inline] only_sharer t line cpu =
  let base = line * t.swords in
  if t.swords = 1 then Array.unsafe_get t.sharers base = sh_bit cpu
  else begin
    let mw = sh_word cpu in
    let ok = ref true in
    for w = 0 to t.swords - 1 do
      let want = if w = mw then sh_bit cpu else 0 in
      if Array.unsafe_get t.sharers (base + w) <> want then ok := false
    done;
    !ok
  end

let[@inline] any_sharer t line =
  let base = line * t.swords in
  if t.swords = 1 then Array.unsafe_get t.sharers base <> 0
  else begin
    let any = ref false in
    for w = 0 to t.swords - 1 do
      if Array.unsafe_get t.sharers (base + w) <> 0 then any := true
    done;
    !any
  end

(* Drop [cpu]'s copy of [line]. *)
let drop_copy t line cpu =
  let i = (line * t.swords) + sh_word cpu in
  Array.unsafe_set t.sharers i
    (Array.unsafe_get t.sharers i land lnot (sh_bit cpu));
  if Array.unsafe_get t.dirty line = cpu then Array.unsafe_set t.dirty line (-1);
  let pc = Array.unsafe_get t.cpus cpu in
  pc.nresident <- pc.nresident - 1;
  let s = line land t.set_mask in
  Array.unsafe_set pc.set_nres s (Array.unsafe_get pc.set_nres s - 1)

(* Make room in [cpu]'s target set if bounded and full, FIFO order. *)
let rec evict_if_full t cpu set =
  let pc = Array.unsafe_get t.cpus cpu in
  if
    t.geometry.cache_lines > 0
    && Array.unsafe_get pc.set_nres set >= t.set_capacity
  then begin
    let f = Array.unsafe_get pc.fifos set in
    if f.len = 0 then
      (* Resident count says full but the FIFO is empty: impossible by
         construction, but recover rather than loop forever. *)
      Array.unsafe_set pc.set_nres set 0
    else begin
      let line = fifo_pop f in
      if is_sharer t line cpu then begin
        drop_copy t line cpu;
        pc.st.evictions <- pc.st.evictions + 1
      end
      else
        (* Stale FIFO entry: the line was stolen by another CPU's
           write.  Skip it and keep looking. *)
        evict_if_full t cpu set
    end
  end

let insert_copy t line cpu =
  if not (is_sharer t line cpu) then begin
    let set = line land t.set_mask in
    evict_if_full t cpu set;
    let i = (line * t.swords) + sh_word cpu in
    Array.unsafe_set t.sharers i (Array.unsafe_get t.sharers i lor sh_bit cpu);
    let pc = Array.unsafe_get t.cpus cpu in
    pc.nresident <- pc.nresident + 1;
    Array.unsafe_set pc.set_nres set (Array.unsafe_get pc.set_nres set + 1);
    (* The FIFO only feeds eviction; an unbounded cache never evicts,
       so skip the ring entirely. *)
    if t.geometry.cache_lines > 0 then
      fifo_push (Array.unsafe_get pc.fifos set) line
  end

(* Invalidate every copy other than [cpu]'s; returns how many were
   invalidated.  Word by word, set bits lowest-CPU-first within each —
   the same order the single-word bitmask walked. *)
let invalidate_others t line cpu =
  let base = line * t.swords in
  let mw = sh_word cpu and mb = sh_bit cpu in
  let set = line land t.set_mask in
  let n = ref 0 in
  for w = 0 to t.swords - 1 do
    let v = Array.unsafe_get t.sharers (base + w) in
    let others = if w = mw then v land lnot mb else v in
    if others <> 0 then begin
      (* Iterate set bits directly: a contended line typically has one
         other holder, so this loops once where a position-by-position
         walk visits every lower bit. *)
      let rem = ref others in
      while !rem <> 0 do
        let c = (w lsl 5) + lsb_index (!rem land - !rem) in
        let pc = Array.unsafe_get t.cpus c in
        pc.nresident <- pc.nresident - 1;
        Array.unsafe_set pc.set_nres set (Array.unsafe_get pc.set_nres set - 1);
        incr n;
        rem := !rem land (!rem - 1)
      done;
      Array.unsafe_set t.sharers (base + w) (v land lnot others)
    end
  done;
  if !n > 0 then begin
    let d = Array.unsafe_get t.dirty line in
    if d >= 0 && d <> cpu then Array.unsafe_set t.dirty line (-1)
  end;
  !n

(* Home node of [line]'s memory: address-range partition, so node-local
   data structures really are serviced by local memory. *)
let[@inline] home_node t line = line / t.lines_per_node

(* Any copy of [line] held outside [node] (ignoring [cpu] itself):
   decides whether an invalidation round crosses the interconnect. *)
let[@inline never] remote_holder t line cpu node =
  let base = line * t.swords in
  let mw = sh_word cpu and mb = sh_bit cpu in
  let found = ref false in
  let w = ref 0 in
  while (not !found) && !w < t.swords do
    let v = Array.unsafe_get t.sharers (base + !w) in
    let v = if !w = mw then v land lnot mb else v in
    let rem = ref v in
    while (not !found) && !rem <> 0 do
      let c = (!w lsl 5) + lsb_index (!rem land - !rem) in
      if Array.unsafe_get t.node_of c <> node then found := true;
      rem := !rem land (!rem - 1)
    done;
    incr w
  done;
  !found

let[@inline] owner_of t line =
  if line < Array.length t.owner then Array.unsafe_get t.owner line
  else shared

let[@inline never] violation ~cpu a kind o =
  raise
    (Ownership_violation
       (if o = read_only then
          Printf.sprintf "Sim.Cache: CPU %d stores to read-only address %d" cpu
            a
        else
          Printf.sprintf
            "Sim.Cache: CPU %d %s address %d, on a line owned by CPU %d" cpu
            (match kind with
            | Load -> "loads"
            | Store -> "stores to"
            | Rmw -> "updates")
            a o))

let access t ~cpu a kind =
  let g = t.geometry in
  let line = a lsr t.line_shift in
  let pc = t.cpus.(cpu) in
  let st = pc.st in
  (match kind with
  | Load -> st.loads <- st.loads + 1
  | Store -> st.stores <- st.stores + 1
  | Rmw -> st.rmws <- st.rmws + 1);
  if a >= t.uncached_base then begin
    (* Uncacheable device-register space: every access goes to the bus. *)
    let cost = uncached_cost in
    st.misses <- st.misses + 1;
    st.stall_cycles <- st.stall_cycles + cost;
    (match t.trace with
    | Some f -> f ~cpu ~addr:a kind ~cost
    | None -> ());
    cost
  end
  else begin
  let numa = t.nnodes > 1 in
  let mine = is_sharer t line cpu in
  let dirty = Array.unsafe_get t.dirty line in
  let dirty_elsewhere = dirty >= 0 && dirty <> cpu in
  (* NUMA surcharge of the current transition, 0 always on the flat
     machine (and on hits).  Computed inline — no closures, no ref —
     because this is the hottest function in the simulator:
     - a miss serviced by a remote node's memory pays [node_miss_cost];
     - a dirty transfer from a remote CPU pays [node_c2c_cost], plus
       [node_miss_cost] when the line's directory home is on a third
       node (the request detours requester -> home -> owner);
     - an invalidation round that must reach a remote node's copy pays
       [node_c2c_cost]. *)
  let miss_extra =
    if numa && home_node t line <> Array.unsafe_get t.node_of cpu then
      g.node_miss_cost
    else 0
  in
  let c2c_extra =
    if numa && dirty_elsewhere then begin
      let my = Array.unsafe_get t.node_of cpu in
      let own = Array.unsafe_get t.node_of dirty in
      let e = if own <> my then g.node_c2c_cost else 0 in
      let h = home_node t line in
      if h <> my && h <> own then e + g.node_miss_cost else e
    end
    else 0
  in
  let cost =
    match kind with
    | Load ->
        if mine then begin
          st.hits <- st.hits + 1;
          0
        end
        else begin
          let o = owner_of t line in
          if o >= 0 && o <> cpu then violation ~cpu a kind o;
          if dirty_elsewhere then begin
            (* Cache-to-cache transfer: the owner writes back and both
               end up with shared copies. *)
            st.c2c <- st.c2c + 1;
            Array.unsafe_set t.dirty line (-1);
            insert_copy t line cpu;
            if c2c_extra > 0 then st.remote <- st.remote + 1;
            g.c2c_cost + c2c_extra
          end
          else begin
            st.misses <- st.misses + 1;
            insert_copy t line cpu;
            if miss_extra > 0 then st.remote <- st.remote + 1;
            g.miss_cost + miss_extra
          end
        end
    | Store | Rmw ->
        let o = owner_of t line in
        if o <> shared && o <> cpu then violation ~cpu a kind o;
        if mine && only_sharer t line cpu then begin
          (* Exclusive or already modified: silent upgrade. *)
          st.hits <- st.hits + 1;
          Array.unsafe_set t.dirty line cpu;
          0
        end
        else begin
          let fetch_cost =
            if mine then begin
              (* Shared here and elsewhere: invalidation round only.
                 The sharer-set walk in [remote_holder] is gated behind
                 [numa] so the flat machine never pays it. *)
              st.upgrades <- st.upgrades + 1;
              let e =
                if
                  numa
                  && remote_holder t line cpu (Array.unsafe_get t.node_of cpu)
                then g.node_c2c_cost
                else 0
              in
              if e > 0 then st.remote <- st.remote + 1;
              g.upgrade_cost + e
            end
            else if dirty_elsewhere then begin
              st.c2c <- st.c2c + 1;
              if c2c_extra > 0 then st.remote <- st.remote + 1;
              g.c2c_cost + c2c_extra
            end
            else begin
              st.misses <- st.misses + 1;
              if any_sharer t line then begin
                let e =
                  miss_extra
                  +
                  if
                    numa
                    && remote_holder t line cpu
                         (Array.unsafe_get t.node_of cpu)
                  then g.node_c2c_cost
                  else 0
                in
                if e > 0 then st.remote <- st.remote + 1;
                g.upgrade_cost + g.miss_cost + e
              end
              else begin
                if miss_extra > 0 then st.remote <- st.remote + 1;
                g.miss_cost + miss_extra
              end
            end
          in
          st.invalidations <-
            st.invalidations + invalidate_others t line cpu;
          insert_copy t line cpu;
          Array.unsafe_set t.dirty line cpu;
          fetch_cost
        end
  in
  st.stall_cycles <- st.stall_cycles + cost;
  (match t.trace with
  | Some f -> f ~cpu ~addr:a kind ~cost
  | None -> ());
  cost
  end

let stats t ~cpu = t.cpus.(cpu).st

let total_stats t =
  let acc = fresh_stats () in
  Array.iter
    (fun pc ->
      let s = pc.st in
      acc.loads <- acc.loads + s.loads;
      acc.stores <- acc.stores + s.stores;
      acc.rmws <- acc.rmws + s.rmws;
      acc.hits <- acc.hits + s.hits;
      acc.misses <- acc.misses + s.misses;
      acc.c2c <- acc.c2c + s.c2c;
      acc.upgrades <- acc.upgrades + s.upgrades;
      acc.invalidations <- acc.invalidations + s.invalidations;
      acc.evictions <- acc.evictions + s.evictions;
      acc.remote <- acc.remote + s.remote;
      acc.stall_cycles <- acc.stall_cycles + s.stall_cycles)
    t.cpus;
  acc

let reset_stats t =
  Array.iter
    (fun pc ->
      let s = pc.st in
      s.loads <- 0;
      s.stores <- 0;
      s.rmws <- 0;
      s.hits <- 0;
      s.misses <- 0;
      s.c2c <- 0;
      s.upgrades <- 0;
      s.invalidations <- 0;
      s.evictions <- 0;
      s.remote <- 0;
      s.stall_cycles <- 0)
    t.cpus

let set_trace t f = t.trace <- f

let private_hit t ~cpu a kind =
  let line = a lsr t.line_shift in
  line < Array.length t.owner
  && t.trace == None
  &&
  let o = Array.unsafe_get t.owner line in
  (o = cpu || (o = read_only && kind = Load)) && is_sharer t line cpu

let own t ~addr ~words o =
  if words < 1 || addr < 0 || addr + words > t.uncached_base then
    invalid_arg
      (Printf.sprintf "Sim.Cache.own: [%d, %d) is not cached memory" addr
         (addr + words));
  let code, what =
    match o with
    | Cpu c ->
        if c < 0 || c >= t.cfg.ncpus then
          invalid_arg (Printf.sprintf "Sim.Cache.own: no CPU %d" c);
        (c, Printf.sprintf "CPU %d" c)
    | Read_only -> (read_only, "read-only")
  in
  let first = addr lsr t.line_shift
  and last = (addr + words - 1) lsr t.line_shift in
  (* Check every line before declaring any, so a refused declaration
     leaves no trace. *)
  for line = first to last do
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          raise
            (Ownership_violation
               (Printf.sprintf "Sim.Cache.own: line of address %d (%s): %s"
                  (line lsl t.line_shift) what m)))
        fmt
    in
    let prev = owner_of t line in
    if prev <> shared && prev <> code then
      fail "already declared %s"
        (if prev = read_only then "read-only"
         else Printf.sprintf "owned by CPU %d" prev);
    match o with
    | Cpu c ->
        for other = 0 to t.cfg.ncpus - 1 do
          if other <> c && is_sharer t line other then
            fail "held by CPU %d" other
        done
    | Read_only ->
        let d = t.dirty.(line) in
        if d >= 0 then fail "held modified by CPU %d" d
  done;
  if last >= Array.length t.owner then begin
    let grown = Array.make (last + 1) shared in
    Array.blit t.owner 0 grown 0 (Array.length t.owner);
    t.owner <- grown
  end;
  Array.fill t.owner first (last - first + 1) code

let holders_oracle t a =
  let line = a lsr t.line_shift in
  let rec go c acc =
    if c < 0 then acc
    else go (c - 1) (if is_sharer t line c then c :: acc else acc)
  in
  go (t.cfg.ncpus - 1) []

let dirty_owner_oracle t a =
  let line = a lsr t.line_shift in
  let d = t.dirty.(line) in
  if d >= 0 then Some d else None

let resident_oracle t ~cpu = t.cpus.(cpu).nresident

let node_of_cpu_oracle t cpu = t.node_of.(cpu)
let home_of_addr_oracle t a = home_node t (a lsr t.line_shift)
