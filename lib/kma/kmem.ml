open Sim

exception Kmem_exhausted

exception Corruption = Percpu.Corruption

type t = Ctx.t

(* Straight-line charges for the standard functional interface beyond
   the 13-instruction per-CPU fast path: a function call, argument
   marshalling and the size-to-class mapping.  Calibrated so a warm
   standard allocation retires 35 instructions and a warm free 32
   (experiment E2; one instruction of each is the charged table read). *)
let w_std_alloc = 21
let w_std_free = 18

let create machine ?(params = Params.default) ?(numa_global = false) () =
  let cfg = Machine.config machine in
  let layout = Layout.make cfg params in
  let mem = Machine.memory machine in
  let nsizes = layout.Layout.nsizes in
  let nnodes = layout.Layout.nnodes in
  (* Boot-time: size-to-class table, never stored to again. *)
  let gran = params.Params.sizes_bytes.(0) in
  for idx = 0 to layout.Layout.size_table_len - 1 do
    let bytes = (idx + 1) * gran in
    match Params.size_index_of_bytes params bytes with
    | Some si -> Memory.set mem (layout.Layout.size_table_base + idx) si
    | None -> assert false
  done;
  Cache.own (Machine.cache machine) ~addr:layout.Layout.size_table_base
    ~words:layout.Layout.size_table_len Cache.Read_only;
  let total_pages =
    match params.Params.phys_pages with
    | Some p -> p
    | None -> Layout.total_data_pages layout
  in
  (* Cycles the VM system charges per physical page granted and per
     page reclaimed. *)
  let vmsys = Vmsys.create ~total_pages ~grant_cost:300 ~reclaim_cost:200 in
  let ctx =
    {
      Ctx.machine;
      layout;
      vmsys;
      stats = Kstats.create ~nsizes;
      glocks =
        (* One lock per (node, size), node-major so node 0's slice keeps
           the historical per-size indices. *)
        Array.init (nnodes * nsizes) (fun i ->
            Spinlock.init mem
              (Layout.gbl_node_addr layout ~node:(i / nsizes)
                 ~si:(i mod nsizes)));
      plocks =
        Array.init nsizes (fun si ->
            Spinlock.init mem (Layout.pagepool_addr layout ~si));
      vlock = Spinlock.init mem layout.Layout.vmctl_base;
      pressure =
        Ctx.make_pressure_state ~ncpus:layout.Layout.ncpus ~params;
      numa_global;
    }
  in
  Percpu.boot_init ctx;
  Global.boot_init ctx;
  Pagepool.boot_init ctx;
  Vmblk.boot_init ctx;
  (* Name the allocator's locks for flight-recorder reports and declare
     their lockcheck classes (no-ops when neither is installed;
     boot-time, host-side).  Classes follow the legal nesting
     gbl -> pagepool -> vmblk; all three are [vm_safe] because the
     refill chain legitimately reaches [Sim.Vmsys] with them held — see
     DESIGN.md "Concurrency invariants" for why this deviates from the
     paper's rule. *)
  for si = 0 to nsizes - 1 do
    let bytes = params.Params.sizes_bytes.(si) in
    for node = 0 to nnodes - 1 do
      let gbl = Layout.gbl_node_addr layout ~node ~si in
      let name =
        if node = 0 then Printf.sprintf "gbl[%dB]" bytes
        else Printf.sprintf "gbl[n%d][%dB]" node bytes
      in
      Spinlock.register ~addr:gbl ~name ~cls:"kma.gbl" ~vm_safe:true
    done;
    let pp = Layout.pagepool_addr layout ~si in
    Spinlock.register ~addr:pp
      ~name:(Printf.sprintf "pagepool[%dB]" bytes)
      ~cls:"kma.pagepool" ~vm_safe:true
  done;
  Spinlock.register ~addr:layout.Layout.vmctl_base ~name:"vmblk"
    ~cls:"kma.vmblk" ~vm_safe:true;
  ctx

let max_small_bytes (t : t) =
  let p = Ctx.params t in
  p.Params.sizes_bytes.(Array.length p.Params.sizes_bytes - 1)

(* Charged size-to-class mapping: one table read. *)
let lookup_si (t : t) ~bytes =
  let ly = t.Ctx.layout in
  Machine.read
    (ly.Layout.size_table_base
    + ((bytes - 1) lsr ly.Layout.size_table_gran_shift))

let size_index (t : t) ~bytes =
  if bytes <= 0 then invalid_arg "Kma.Kmem.size_index: bytes <= 0";
  if bytes > max_small_bytes t then None else Some (lookup_si t ~bytes)

(* Small and large attempts both go through [Pressure.with_retries]:
   one host branch when the pressure subsystem is disabled, the
   bounded reap-and-retry path when enabled. *)
let alloc_class (t : t) ~si = Pressure.with_retries t (fun () -> Percpu.alloc t ~si)

let alloc_small (t : t) ~bytes =
  Machine.work w_std_alloc;
  alloc_class t ~si:(lookup_si t ~bytes)

let alloc_large (t : t) ~bytes =
  Pressure.with_retries t (fun () -> Vmblk.alloc_large t ~bytes)

let try_alloc (t : t) ~bytes =
  if bytes <= 0 then invalid_arg "Kma.Kmem.try_alloc: bytes <= 0";
  let a =
    if bytes > max_small_bytes t then alloc_large t ~bytes
    else alloc_small t ~bytes
  in
  if a = 0 then None else Some a

let alloc (t : t) ~bytes =
  if bytes <= 0 then invalid_arg "Kma.Kmem.alloc: bytes <= 0";
  let a =
    if bytes > max_small_bytes t then alloc_large t ~bytes
    else alloc_small t ~bytes
  in
  if a = 0 then raise Kmem_exhausted;
  a

let alloc_zeroed (t : t) ~bytes =
  let a = alloc t ~bytes in
  (* System V kmem_zalloc: the caller gets cleared memory; the zeroing
     writes are honestly charged. *)
  let words =
    if bytes > max_small_bytes t then
      (bytes + Params.bytes_per_word - 1) / Params.bytes_per_word
    else
      match Params.size_index_of_bytes (Ctx.params t) bytes with
      | Some si -> Params.size_words (Ctx.params t) si
      | None -> assert false
  in
  for w = 0 to words - 1 do
    Machine.write (a + w) 0
  done;
  a

let free (t : t) ~addr ~bytes =
  if bytes <= 0 then invalid_arg "Kma.Kmem.free: bytes <= 0";
  if bytes > max_small_bytes t then Vmblk.free_large t ~addr ~bytes
  else begin
    Machine.work w_std_free;
    Percpu.free t ~si:(lookup_si t ~bytes) addr
  end

let reap_global (t : t) =
  for si = 0 to t.Ctx.layout.Layout.nsizes - 1 do
    Global.drain_all t ~si
  done

let machine (t : t) = t.Ctx.machine
let params (t : t) = Ctx.params t
let stats (t : t) = t.Ctx.stats
let vmsys (t : t) = t.Ctx.vmsys
let granted_pages_oracle (t : t) = Vmsys.granted t.Ctx.vmsys
