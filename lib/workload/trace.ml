type event =
  | Alloc of { cpu : int; gap : int; id : int; bytes : int }
  | Free of { cpu : int; gap : int; id : int }

type t = event list

let cpu_of = function Alloc { cpu; _ } | Free { cpu; _ } -> cpu
let id_of = function Alloc { id; _ } | Free { id; _ } -> id

let ncpus t = 1 + List.fold_left (fun m e -> Int.max m (cpu_of e)) 0 t

(* (weight, bytes): mostly small tracking structures, occasional
   page-sized buffers. *)
let size_mix =
  [|
    (30, 16); (25, 32); (15, 64); (10, 128); (8, 256); (6, 512); (4, 1024);
    (1, 2048); (1, 4096);
  |]

(* At most this many ids are live at once; beyond it the next event is
   a free. *)
let live_window = 64

let synthesize ?(seed = 13) ?(ncpus = 1) ?(mean_gap = 0) ~ops () =
  if ncpus < 1 then invalid_arg "Workload.Trace.synthesize: ncpus < 1";
  if mean_gap < 0 then invalid_arg "Workload.Trace.synthesize: mean_gap < 0";
  let rng = Prng.create ~seed in
  let live = ref [] in
  let nlive = ref 0 in
  let next_id = ref 0 in
  let events = ref [] in
  let cpu () = if ncpus = 1 then 0 else Prng.int rng ~bound:ncpus in
  let gap () = if mean_gap = 0 then 0 else Prng.int rng ~bound:((2 * mean_gap) + 1) in
  for _ = 1 to ops do
    if
      !nlive >= live_window
      || (!nlive > 0 && Prng.int rng ~bound:100 < 40)
    then begin
      (* Free a pseudo-random live id (not always the newest, so the
         trace exercises out-of-order frees); the freeing CPU is drawn
         independently of the allocating one, so multi-CPU traces
         naturally contain cross-CPU frees. *)
      let n = Prng.int rng ~bound:!nlive in
      let id = List.nth !live n in
      live := List.filter (fun x -> x <> id) !live;
      decr nlive;
      events := Free { cpu = cpu (); gap = gap (); id } :: !events
    end
    else begin
      let id = !next_id in
      incr next_id;
      let bytes = Prng.weighted rng size_mix in
      live := id :: !live;
      incr nlive;
      events := Alloc { cpu = cpu (); gap = gap (); id; bytes } :: !events
    end
  done;
  List.iter
    (fun id -> events := Free { cpu = cpu (); gap = 0; id } :: !events)
    !live;
  List.rev !events

let validate t =
  let live = Hashtbl.create 64 in
  let seen = Hashtbl.create 64 in
  let rec go = function
    | [] ->
        if Hashtbl.length live = 0 then Ok ()
        else Error (Printf.sprintf "%d ids never freed" (Hashtbl.length live))
    | Alloc { cpu; gap; id; bytes } :: rest ->
        if Hashtbl.mem seen id then
          Error (Printf.sprintf "id %d allocated twice" id)
        else if bytes <= 0 then Error (Printf.sprintf "id %d: bytes <= 0" id)
        else if cpu < 0 then Error (Printf.sprintf "id %d: cpu < 0" id)
        else if gap < 0 then Error (Printf.sprintf "id %d: gap < 0" id)
        else begin
          Hashtbl.add seen id ();
          Hashtbl.add live id ();
          go rest
        end
    | Free { cpu; gap; id } :: rest ->
        if not (Hashtbl.mem live id) then
          Error (Printf.sprintf "id %d freed while not live" id)
        else if cpu < 0 then Error (Printf.sprintf "free of id %d: cpu < 0" id)
        else if gap < 0 then Error (Printf.sprintf "free of id %d: gap < 0" id)
        else begin
          Hashtbl.remove live id;
          go rest
        end
  in
  go t

(* --- scaling transforms --- *)

let scale_rate ~factor t =
  if not (factor > 0.) then
    invalid_arg "Workload.Trace.scale_rate: factor must be > 0";
  let scale gap =
    if gap = 0 then 0 else max 0 (int_of_float (float_of_int gap /. factor))
  in
  List.map
    (function
      | Alloc a -> Alloc { a with gap = scale a.gap }
      | Free f -> Free { f with gap = scale f.gap })
    t

let fan_out ~copies t =
  if copies < 1 then invalid_arg "Workload.Trace.fan_out: copies < 1";
  if copies = 1 then t
  else begin
    let base = ncpus t in
    List.concat_map
      (fun e ->
        List.init copies (fun c ->
            match e with
            | Alloc { cpu; gap; id; bytes } ->
                Alloc
                  { cpu = cpu + (c * base); gap; id = (id * copies) + c; bytes }
            | Free { cpu; gap; id } ->
                Free { cpu = cpu + (c * base); gap; id = (id * copies) + c }))
      t
  end

let skew_frees ?(seed = 7) ~fraction t =
  if fraction < 0. || fraction > 1. then
    invalid_arg "Workload.Trace.skew_frees: fraction must be in [0, 1]";
  let n = ncpus t in
  if n < 2 || fraction = 0. then t
  else begin
    let rng = Prng.create ~seed in
    let threshold = int_of_float (fraction *. 10_000.) in
    List.map
      (function
        | Alloc _ as e -> e
        | Free f as e ->
            (* Draw in a fixed order so the transform is deterministic
               regardless of which frees end up moved. *)
            let roll = Prng.int rng ~bound:10_000 in
            let hop = 1 + Prng.int rng ~bound:(n - 1) in
            if roll < threshold then Free { f with cpu = (f.cpu + hop) mod n }
            else e)
      t
  end

(* --- replay --- *)

type result = { ops : int; failures : int; skipped_frees : int; cycles : int }

(* Replay state is indexed by a dense slot per trace id, mapped once in
   [start]: replaying an event costs array reads and writes, and
   nothing grows with the trace while it replays. *)
type session = {
  machine : Sim.Machine.t;
  a : Baseline.Allocator.t;
  s_ncpus : int;
  evs : event array;
  slot_of : int array;  (* event index -> slot of its id *)
  mutable next : int;  (* index of the first event not yet stepped *)
  addr : int array;  (* slot -> published address, 0 when none *)
  size : int array;  (* slot -> bytes of the live allocation *)
  state : Bytes.t;  (* slot -> [scheduled] lor [failed] lor [freed] *)
  waiting : (int, int) Hashtbl.t;
      (* slot -> CPUs waiting for its publication (one binding per
         waiter) *)
  mutable s_ops : int;
  mutable s_failures : int;
  mutable s_skipped : int;
  mutable s_live_bytes : int;
  t0 : int;
}

(* Slot state bits.  [scheduled]: the allocation was issued to some
   already-run (or running) window, so a free may legitimately wait
   for it. *)
let scheduled = 1
let failed = 2
let freed = 4

let has s k bit = Char.code (Bytes.unsafe_get s.state k) land bit <> 0

let set s k bit =
  Bytes.unsafe_set s.state k
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get s.state k) lor bit))

(* Number the distinct ids in order of first appearance, through one
   open-addressing table: the id's Fibonacci hash picks a cell, linear
   probing resolves collisions, and each cell is two words, the slot
   (-1 when empty) beside its id, so a probe reads one cache line.
   There is a cell per event, rounded up to a power of two.  The events
   bound the ids, so a probe always ends, and a well-formed trace (each
   id allocated and freed) fills at most half the cells.  Filling the
   table is most of its cost, so it is no larger.  It is allocated
   once: numbering allocates nothing per event. *)
let fib_mult = 0x4F1BBCDCBFA53E0B (* 2^63 / golden ratio, odd *)

let slots evs =
  let n = Array.length evs in
  let bits = ref 1 in
  while 1 lsl !bits < n do
    incr bits
  done;
  let shift = Sys.int_size - !bits and mask = (1 lsl !bits) - 1 in
  let cells = Array.make (2 lsl !bits) (-1) in
  let slot_of = Array.make n 0 and nslots = ref 0 in
  for i = 0 to n - 1 do
    let id = id_of (Array.unsafe_get evs i) in
    let j = ref ((id * fib_mult) lsr shift) in
    while
      Array.unsafe_get cells (2 * !j) >= 0
      && Array.unsafe_get cells ((2 * !j) + 1) <> id
    do
      j := (!j + 1) land mask
    done;
    if Array.unsafe_get cells (2 * !j) < 0 then begin
      Array.unsafe_set cells (2 * !j) !nslots;
      Array.unsafe_set cells ((2 * !j) + 1) id;
      incr nslots
    end;
    Array.unsafe_set slot_of i (Array.unsafe_get cells (2 * !j))
  done;
  (slot_of, !nslots)

let start machine a t =
  let n = ncpus t in
  let avail = (Sim.Machine.config machine).Sim.Config.ncpus in
  if n > avail then
    invalid_arg
      (Printf.sprintf
         "Workload.Trace.start: trace uses %d CPUs but the machine has %d" n
         avail);
  let evs = Array.of_list t in
  let slot_of, nslots = slots evs in
  {
    machine;
    a;
    s_ncpus = n;
    evs;
    slot_of;
    next = 0;
    addr = Array.make nslots 0;
    size = Array.make nslots 0;
    state = Bytes.make nslots '\000';
    waiting = Hashtbl.create 16;
    s_ops = 0;
    s_failures = 0;
    s_skipped = 0;
    s_live_bytes = 0;
    t0 = Sim.Machine.elapsed machine;
  }

let live_bytes s = s.s_live_bytes

(* Wake every CPU parked on slot [k]'s publication.  Called right after
   the zero-cost [now] that ends the allocation: that is the
   publishing point [Machine.wake] charges the sleepers' polls up to. *)
let wake_waiters s k =
  if Hashtbl.length s.waiting > 0 then
    List.iter
      (fun cpu ->
        Hashtbl.remove s.waiting k;
        Sim.Machine.wake cpu)
      (Hashtbl.find_all s.waiting k)

(* The session's tables are host state every CPU's replay touches, so
   each access sits at a scheduled position: right after a [now] (a
   yield point), or after the [sync] that follows a think-time gap,
   which [work] runs ahead of the schedule. *)
let exec s ~on_op i =
  let open Sim in
  let k = Array.unsafe_get s.slot_of i in
  match Array.unsafe_get s.evs i with
  | Alloc { cpu; gap; bytes; _ } ->
      Machine.work gap;
      let t0 = Machine.now () in
      let addr = s.a.Baseline.Allocator.alloc ~bytes in
      let t1 = Machine.now () in
      if addr = 0 then begin
        s.s_failures <- s.s_failures + 1;
        set s k failed
      end
      else begin
        s.addr.(k) <- addr;
        s.size.(k) <- bytes;
        s.s_live_bytes <- s.s_live_bytes + bytes
      end;
      wake_waiters s k;
      s.s_ops <- s.s_ops + 1;
      on_op ~cpu ~alloc:true ~latency:(t1 - t0)
  | Free { cpu; gap; _ } ->
      Machine.work gap;
      Machine.sync ();
      (* Wait for the allocating CPU to publish the address: the
         replayed handoff of a cross-CPU free.  The wait is charged as
         the spin-wait of a real consumer polling for work; parking
         only spares the host the polls that cannot succeed. *)
      let rec wait ~registered =
        let addr = s.addr.(k) in
        if addr <> 0 then begin
          let bytes = s.size.(k) in
          let t0 = Machine.now () in
          s.a.Baseline.Allocator.free ~addr ~bytes;
          let t1 = Machine.now () in
          s.s_live_bytes <- s.s_live_bytes - bytes;
          s.addr.(k) <- 0;
          set s k freed;
          s.s_ops <- s.s_ops + 1;
          on_op ~cpu ~alloc:false ~latency:(t1 - t0)
        end
        else if has s k (failed lor freed) || not (has s k scheduled) then begin
          (* Denied allocation (or a malformed trace): the free has
             nothing to release.  Counted, never silent. *)
          s.s_ops <- s.s_ops + 1;
          s.s_skipped <- s.s_skipped + 1
        end
        else begin
          if not registered then Hashtbl.add s.waiting k cpu;
          Machine.park ();
          wait ~registered:true
        end
      in
      wait ~registered:false

let no_op ~cpu:_ ~alloc:_ ~latency:_ = ()

let step ?(on_op = no_op) s n =
  if n < 1 then invalid_arg "Workload.Trace.step: window < 1";
  let lo = s.next and len = Array.length s.evs in
  let hi = if n >= len - lo then len else lo + n in
  if lo >= hi then false
  else begin
    s.next <- hi;
    (* Partition the window [lo, hi) per CPU, in trace order. *)
    let per_cpu = Array.make s.s_ncpus [] in
    for i = hi - 1 downto lo do
      let e = s.evs.(i) in
      (match e with Alloc _ -> set s s.slot_of.(i) scheduled | Free _ -> ());
      per_cpu.(cpu_of e) <- i :: per_cpu.(cpu_of e)
    done;
    Sim.Machine.run s.machine
      (Array.init s.s_ncpus (fun c _ -> List.iter (exec s ~on_op) per_cpu.(c)));
    hi < len
  end

let finish s =
  {
    ops = s.s_ops;
    failures = s.s_failures;
    skipped_frees = s.s_skipped;
    cycles = Sim.Machine.elapsed s.machine - s.t0;
  }

let replay ?on_op machine t (a : Baseline.Allocator.t) =
  let s = start machine a t in
  (match t with [] -> () | _ -> ignore (step ?on_op s (Array.length s.evs)));
  finish s

(* --- recording --- *)

let record (a : Baseline.Allocator.t) f =
  let events = ref [] in
  let next_id = ref 0 in
  let id_of = Hashtbl.create 256 in
  let last_end : (int, int) Hashtbl.t = Hashtbl.create 8 in
  (* Anchor the calling CPU's clock so its first recorded gap measures
     think time from the start of recording rather than zero — without
     it a replay would drop any work charged before the first op and
     the bit-identical-cycles property (test/scenario) would not hold. *)
  (match Sim.Machine.running () with
  | Some (cpu, t) -> Hashtbl.replace last_end cpu t
  | None -> ());
  (* Host-side observation via [Machine.running]: reading the emitting
     CPU and its clock this way adds no operation and so cannot perturb
     the recorded run (the flight-recorder idiom).  The event list, the
     id counter and the address table are shared by every CPU's
     wrapper, so each access is anchored with [Machine.sync]: the
     allocator may have run its last operations ahead of the schedule,
     and the recorded order must be the scheduled one. *)
  let here () =
    match Sim.Machine.running () with Some (cpu, t) -> (cpu, t) | None -> (0, 0)
  in
  let gap_at cpu t =
    match Hashtbl.find_opt last_end cpu with
    | Some e -> max 0 (t - e)
    | None -> 0
  in
  let wrapped =
    {
      Baseline.Allocator.name = a.Baseline.Allocator.name ^ "+trace";
      alloc =
        (fun ~bytes ->
          Sim.Machine.sync ();
          let cpu, t = here () in
          let gap = gap_at cpu t in
          let addr = a.Baseline.Allocator.alloc ~bytes in
          Sim.Machine.sync ();
          let cpu', t' = here () in
          Hashtbl.replace last_end cpu' t';
          if addr <> 0 then begin
            let id = !next_id in
            incr next_id;
            Hashtbl.replace id_of addr id;
            events := Alloc { cpu; gap; id; bytes } :: !events
          end;
          addr);
      free =
        (fun ~addr ~bytes ->
          Sim.Machine.sync ();
          let cpu, t = here () in
          let gap = gap_at cpu t in
          (match Hashtbl.find_opt id_of addr with
          | Some id ->
              Hashtbl.remove id_of addr;
              events := Free { cpu; gap; id } :: !events
          | None -> ());
          a.Baseline.Allocator.free ~addr ~bytes;
          let cpu', t' = here () in
          Hashtbl.replace last_end cpu' t');
    }
  in
  f wrapped;
  List.rev !events
