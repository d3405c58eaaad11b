open Sim

(* Constant-time fixed-size allocation in the style of Blelloch & Wei
   (PAPERS.md): per-CPU claimed blocks over a CAS'd shared stack.

   Nine segregated size classes (16 B .. 4096 B), each owning an equal
   share of the arena.  Per CPU and class, a private stack of claimed
   blocks (a count word plus slots on the CPU's own cache lines) serves
   the hot path: alloc pops a slot, free pushes one — a handful of
   exclusive-line accesses, no shared word touched.  When the private
   stack runs dry the CPU pops one BATCH of k blocks from the class's
   shared Treiber stack with a single CAS; when it overfills it links k
   blocks into a batch and pushes it back with a single CAS.  Batching
   divides the shared-head CAS traffic by k — the moral equivalent of
   the paper's per-CPU freelists with target counts, rebuilt without
   the lock.

   The shared head word packs (tag, head-batch address); the tag is
   bumped on every successful CAS so a pop that raced with a concurrent
   pop/push of the same address cannot be fooled (ABA).  Blocks are at
   least 4 words, so word 0 chains blocks within a batch and word 1 of
   a batch's first block holds the next batch's address. *)

let nclasses = 9
let sizes_bytes = Array.init nclasses (fun c -> 16 lsl c)
let words_of c = sizes_bytes.(c) / 4
let batch = 8
let local_cap = 2 * batch

let w_alloc = 10
let w_free = 10

(* head word: (tag lsl tag_shift) lor addr.  Memory is well under
   2^26 words, and OCaml ints hold 63 bits, so the tag has 37 bits
   before wrapping — more CASes than any run performs.

   The per-CPU private count words carry the same (tag, value)
   packing, and every update of a non-empty stack's count word — the
   owner's pops and pushes included — commits with a tagged CAS.  That
   is the price of fixing per-CPU-visible exhaustion: a CPU that finds
   both its private stack and the shared stack empty may claim a
   victim's whole private stack with one CAS on the victim's count
   word (see [steal]), and the claim is only sound if the owner cannot
   blindly overwrite it — a plain owner read-modify-write spanning the
   thief's CAS would resurrect the stolen slots (double allocation).
   With CAS commits every successful update bumps the tag exactly
   once, so the count word's history is ABA-free: whoever's CAS lands
   owns the slots it certifies, and the loser retries against the
   witnessed value.  Slot words keep the single-owner write
   discipline: a thief reads the slots its witnessed count covers but
   never writes them; an owner only writes slots above the visible
   count (invisible to thieves) or below a count it has already
   claimed down from ([flush] commits the count word FIRST, then
   chains the now-private top blocks).  The only plain write left on a
   count word is [refill]'s commit, which runs while the visible count
   is 0 — and thieves skip empty stacks, so nothing can race it. *)
let tag_shift = 26
let addr_mask = (1 lsl tag_shift) - 1

let[@inline] count_of w = w land addr_mask
let[@inline] bump w v = (((w lsr tag_shift) + 1) lsl tag_shift) lor v

type t = {
  machine : Machine.t;
  stats : Stats.t;
  heads_base : int; (* per-class shared head, one line each *)
  head_stride : int;
  local_base : int; (* per-CPU, per-class private stacks *)
  local_stride : int; (* words per (cpu, class) *)
  class_arena : int array; (* per-class arena base *)
  class_blocks : int array; (* per-class block count *)
}

let head_addr t c = t.heads_base + (c * t.head_stride)

let local_addr t ~cpu ~c =
  t.local_base + (((cpu * nclasses) + c) * t.local_stride)

let create machine =
  let cfg = Machine.config machine in
  let mem = Machine.memory machine in
  let line = cfg.Config.geometry.line_words in
  let round_line x = (x + line - 1) / line * line in
  let ncpus = cfg.Config.ncpus in
  let heads_base = round_line 1024 in
  let head_stride = line in
  let local_base = round_line (heads_base + (nclasses * head_stride)) in
  let local_stride = round_line (1 + local_cap) in
  let arena_base =
    round_line (local_base + (ncpus * nclasses * local_stride))
  in
  let mem_end = cfg.Config.memory_words - cfg.Config.uncached_words in
  let span = mem_end - arena_base in
  if span < words_of (nclasses - 1) * nclasses then
    invalid_arg "Lockfree.Bwfixed.create: memory too small";
  let share = span / nclasses in
  let class_arena = Array.make nclasses 0 in
  let class_blocks = Array.make nclasses 0 in
  let cursor = ref arena_base in
  for c = 0 to nclasses - 1 do
    class_arena.(c) <- !cursor;
    class_blocks.(c) <- share / words_of c;
    cursor := !cursor + (class_blocks.(c) * words_of c)
  done;
  let t =
    {
      machine;
      stats = Stats.create ();
      heads_base;
      head_stride;
      local_base;
      local_stride;
      class_arena;
      class_blocks;
    }
  in
  (* Boot host-side: zero heads and local stacks, then chain every
     class's blocks into batches of [batch] and push them on the shared
     stack (newest batch first, so low addresses pop first). *)
  for c = 0 to nclasses - 1 do
    Memory.set mem (head_addr t c) 0
  done;
  for cpu = 0 to ncpus - 1 do
    for c = 0 to nclasses - 1 do
      Memory.set mem (local_addr t ~cpu ~c) 0
    done
  done;
  for c = 0 to nclasses - 1 do
    let w = words_of c in
    let nb = class_blocks.(c) in
    let head = ref 0 in
    (* walk blocks from the top so the stack ends with low addrs on top *)
    let i = ref (nb - 1) in
    while !i >= 0 do
      let first = !i - (!i mod batch) in
      (* batch covers blocks [first .. first + len - 1] *)
      let bh = class_arena.(c) + (first * w) in
      let last = min (first + batch - 1) (nb - 1) in
      for b = first to last do
        let a = class_arena.(c) + (b * w) in
        Memory.set mem a (if b < last then a + w else 0)
      done;
      Memory.set mem (bh + 1) (!head land addr_mask);
      head := bh;
      i := first - 1
    done;
    Memory.set mem (head_addr t c) !head
  done;
  t

let class_of bytes =
  if bytes <= 0 then invalid_arg "Lockfree.Bwfixed: bytes <= 0"
  else
    let rec go c =
      if c >= nclasses then None
      else if sizes_bytes.(c) >= bytes then Some c
      else go (c + 1)
    in
    go 0

(* Pop one batch from class [c]'s shared stack into this CPU's private
   slots; returns the new private count (0 on exhaustion).  [lw] is the
   current value of this CPU's count word (so the tag advances). *)
let refill t ~c ~la ~lw =
  let st = t.stats in
  let ha = head_addr t c in
  let got = ref (-1) in
  let old = ref (Machine.read ha) in
  while !got < 0 do
    let bh = !old land addr_mask in
    if bh = 0 then got := 0
    else begin
      let next = Machine.read (bh + 1) land addr_mask in
      let tag = (!old lsr tag_shift) + 1 in
      st.Stats.cas_attempts <- st.Stats.cas_attempts + 1;
      let w =
        Machine.cas_val ha ~expected:!old
          ~desired:((tag lsl tag_shift) lor next)
      in
      if w = !old then begin
        st.Stats.refills <- st.Stats.refills + 1;
        (* unpack the batch into the private slots *)
        let n = ref 0 in
        let b = ref bh in
        while !b <> 0 do
          Machine.write (la + 1 + !n) !b;
          incr n;
          b := Machine.read !b
        done;
        got := !n
      end
      else begin
        st.Stats.cas_failures <- st.Stats.cas_failures + 1;
        old := w
      end
    end
  done;
  Machine.write la (bump lw !got);
  !got

(* Push an already-linked chain of blocks (head [bh], terminated by 0
   in word 0 of the last block) onto class [c]'s shared stack. *)
let push_chain t ~c ~bh =
  let st = t.stats in
  let ha = head_addr t c in
  let done_ = ref false in
  let old = ref (Machine.read ha) in
  while not !done_ do
    Machine.write (bh + 1) (!old land addr_mask);
    let tag = (!old lsr tag_shift) + 1 in
    st.Stats.cas_attempts <- st.Stats.cas_attempts + 1;
    let w =
      Machine.cas_val ha ~expected:!old ~desired:((tag lsl tag_shift) lor bh)
    in
    if w = !old then begin
      st.Stats.flushes <- st.Stats.flushes + 1;
      done_ := true
    end
    else begin
      st.Stats.cas_failures <- st.Stats.cas_failures + 1;
      old := w
    end
  done

(* Link this CPU's top [batch] private blocks into a batch and push it
   on class [c]'s shared stack.  [lw] is the count word this free
   committed from; the count word must be claimed down BEFORE the
   blocks are chained, else a thief that witnessed the old count could
   chain the same blocks concurrently.  Returns false if a thief won
   the count word first (the caller retries its whole operation). *)
let flush t ~c ~la ~lw ~count =
  let st = t.stats in
  st.Stats.cas_attempts <- st.Stats.cas_attempts + 1;
  if Machine.cas_val la ~expected:lw ~desired:(bump lw (count - batch)) <> lw
  then begin
    st.Stats.cas_failures <- st.Stats.cas_failures + 1;
    false
  end
  else begin
    (* slots (count-batch, count] are now above the visible count:
       exclusively ours.  Chain them; the top slot is the batch head. *)
    let bh = Machine.read (la + count) in
    let prev = ref bh in
    for s = count - 1 downto count - batch + 1 do
      let a = Machine.read (la + s) in
      Machine.write !prev a;
      prev := a
    done;
    Machine.write !prev 0;
    push_chain t ~c ~bh;
    true
  end

(* Per-CPU-visible exhaustion: the shared stack is empty but other
   CPUs' private stacks may hold up to [local_cap] blocks each.  Scan
   the other CPUs; on finding a non-empty private stack, read its slot
   addresses, then claim the whole stack with one tagged CAS on the
   victim's count word (any owner operation in the window bumps the
   tag, failing the CAS and forfeiting nothing).  The stolen blocks are
   chained and flushed to the shared tagged stack — never written into
   the thief's slots directly — so the caller just refills normally.
   Returns true if a stack was flushed to the shared stack. *)
let steal t ~c ~me =
  let st = t.stats in
  let ncpus = (Machine.config t.machine).Config.ncpus in
  let stolen = ref false in
  let cpu = ref 0 in
  while (not !stolen) && !cpu < ncpus do
    if !cpu <> me then begin
      let va = local_addr t ~cpu:!cpu ~c in
      let w = Machine.read va in
      let n = count_of w in
      if n > 0 then begin
        let blocks = Array.make n 0 in
        for s = 1 to n do
          blocks.(s - 1) <- Machine.read (va + s)
        done;
        st.Stats.cas_attempts <- st.Stats.cas_attempts + 1;
        if Machine.cas_val va ~expected:w ~desired:(bump w 0) = w then begin
          for i = 0 to n - 2 do
            Machine.write blocks.(i) blocks.(i + 1)
          done;
          Machine.write blocks.(n - 1) 0;
          push_chain t ~c ~bh:blocks.(0);
          st.Stats.steals <- st.Stats.steals + 1;
          stolen := true
        end
        else st.Stats.cas_failures <- st.Stats.cas_failures + 1
      end
    end;
    incr cpu
  done;
  !stolen

let alloc t ~bytes =
  match class_of bytes with
  | None -> 0
  | Some c ->
      Machine.work w_alloc;
      let st = t.stats in
      let me = Machine.cpu_id () in
      let la = local_addr t ~cpu:me ~c in
      (* Pop with a tagged-CAS commit; a failure means a thief emptied
         our stack under us, so re-read and start over.  On exhaustion,
         alternate refill attempts with theft until the class is empty
         everywhere we can see (lock-free, not wait-free: a raced-away
         batch just means another CPU made progress). *)
      let rec obtain lw =
        let count = count_of lw in
        if count = 0 then begin
          let got = refill t ~c ~la ~lw in
          if got = 0 then
            if steal t ~c ~me then obtain (Machine.read la) else 0
          else pop (bump lw got) got
        end
        else pop lw count
      and pop lw count =
        let a = Machine.read (la + count) in
        st.Stats.cas_attempts <- st.Stats.cas_attempts + 1;
        let w = Machine.cas_val la ~expected:lw ~desired:(bump lw (count - 1)) in
        if w = lw then a
        else begin
          st.Stats.cas_failures <- st.Stats.cas_failures + 1;
          obtain w
        end
      in
      obtain (Machine.read la)

let free t ~addr ~bytes =
  match class_of bytes with
  | None -> invalid_arg "Lockfree.Bwfixed.free: bad size"
  | Some c ->
      Machine.work w_free;
      let st = t.stats in
      let la = local_addr t ~cpu:(Machine.cpu_id ()) ~c in
      (* Push with a tagged-CAS commit (the slot write lands above the
         visible count, so no thief can see it before the commit).  A
         failed commit means the stack was stolen; retry from the
         zeroed count word. *)
      let rec push () =
        let lw = Machine.read la in
        let count = count_of lw + 1 in
        Machine.write (la + count) addr;
        if count = local_cap then begin
          if not (flush t ~c ~la ~lw ~count) then push ()
        end
        else begin
          st.Stats.cas_attempts <- st.Stats.cas_attempts + 1;
          if Machine.cas_val la ~expected:lw ~desired:(bump lw count) <> lw
          then begin
            st.Stats.cas_failures <- st.Stats.cas_failures + 1;
            push ()
          end
        end
      in
      push ()

let stats t = t.stats

(* --- host-side oracles (uncharged) --- *)

let blocks_of_class t ~c = t.class_blocks.(c)

let free_blocks_oracle t ~c =
  let mem = Machine.memory t.machine in
  let ncpus = (Machine.config t.machine).Config.ncpus in
  let n = ref 0 in
  (* shared stack *)
  let bh = ref (Memory.get mem (head_addr t c) land addr_mask) in
  while !bh <> 0 do
    let b = ref !bh in
    while !b <> 0 do
      incr n;
      b := Memory.get mem !b
    done;
    bh := Memory.get mem (!bh + 1) land addr_mask
  done;
  (* private stacks (count words are tagged) *)
  for cpu = 0 to ncpus - 1 do
    n := !n + (Memory.get mem (local_addr t ~cpu ~c) land addr_mask)
  done;
  !n
