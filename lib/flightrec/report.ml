(* All analysis here is host-side post-processing of the recorded
   events; nothing in this module runs on a simulated CPU. *)

let pct num den =
  if den = 0 then "-"
  else Printf.sprintf "%.1f%%" (100. *. float_of_int num /. float_of_int den)

(* Left-justified fixed-width columns, like Experiments.Series but
   without the dependency. *)
let table ppf ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun w row -> max w (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let line row =
    String.concat "  "
      (List.mapi
         (fun c cell -> Printf.sprintf "%-*s" (List.nth widths c) cell)
         row)
  in
  Format.fprintf ppf "%s@," (line header);
  Format.fprintf ppf "%s@,"
    (line (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> Format.fprintf ppf "%s@," (line row)) rows

(* --- per-lock contention --- *)

type lock_stat = {
  mutable acquires : int;
  mutable contended : int;
  mutable spins : int;
  mutable spins_max : int;
  mutable holds : int;
  mutable hold_total : int;
  mutable hold_max : int;
}

let lock_stats_of_events events =
  let stats : (int, lock_stat) Hashtbl.t = Hashtbl.create 16 in
  (* Last unmatched acquire per (cpu, lock): spinlocks never nest on one
     CPU, so pairing the most recent acquire is exact (up to ring
     drops, which just lose a sample). *)
  let open_acq : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let stat lock =
    match Hashtbl.find_opt stats lock with
    | Some s -> s
    | None ->
        let s =
          {
            acquires = 0;
            contended = 0;
            spins = 0;
            spins_max = 0;
            holds = 0;
            hold_total = 0;
            hold_max = 0;
          }
        in
        Hashtbl.add stats lock s;
        s
  in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Lock_acquire { lock; spins } ->
          let s = stat lock in
          s.acquires <- s.acquires + 1;
          if spins > 0 then s.contended <- s.contended + 1;
          s.spins <- s.spins + spins;
          if spins > s.spins_max then s.spins_max <- spins;
          Hashtbl.replace open_acq (e.Event.cpu, lock) e.Event.time
      | Event.Lock_release { lock } -> (
          match Hashtbl.find_opt open_acq (e.Event.cpu, lock) with
          | None -> ()
          | Some t0 ->
              Hashtbl.remove open_acq (e.Event.cpu, lock);
              let s = stat lock in
              let held = e.Event.time - t0 in
              s.holds <- s.holds + 1;
              s.hold_total <- s.hold_total + held;
              if held > s.hold_max then s.hold_max <- held)
      | _ -> ())
    events;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) stats [])

(* Public hook: the pathology analyzer in lib/scenario consumes the
   same per-lock accumulation the report renders, as plain values. *)
let lock_stats r = lock_stats_of_events (Recorder.events r)

let pp_locks ppf r events =
  Format.fprintf ppf "-- lock contention --@,";
  match lock_stats_of_events events with
  | [] -> Format.fprintf ppf "(no lock events recorded)@,"
  | stats ->
      table ppf
        ~header:
          [
            "lock"; "acquires"; "contended"; "cont%"; "spins"; "max-spin";
            "avg-hold"; "max-hold";
          ]
        (List.map
           (fun (lock, s) ->
             [
               Recorder.lock_name r lock;
               string_of_int s.acquires;
               string_of_int s.contended;
               pct s.contended s.acquires;
               string_of_int s.spins;
               string_of_int s.spins_max;
               (if s.holds = 0 then "-"
                else string_of_int (s.hold_total / s.holds));
               string_of_int s.hold_max;
             ])
           stats)

(* --- per-layer miss timeline --- *)

let pp_timeline ppf ~buckets events =
  let times = List.map (fun (e : Event.t) -> e.Event.time) events in
  match times with
  | [] ->
      Format.fprintf ppf "-- per-layer miss timeline --@,";
      Format.fprintf ppf "(no events recorded)@,"
  | t :: _ ->
      let t0 = List.fold_left min t times in
      let t1 = List.fold_left max t times in
      let width = max 1 ((t1 - t0 + buckets) / buckets) in
      let nb = ((t1 - t0) / width) + 1 in
      let allocs = Array.make nb 0
      and pcpu_miss = Array.make nb 0
      and gbl_miss = Array.make nb 0
      and grabs = Array.make nb 0
      and denials = Array.make nb 0 in
      List.iter
        (fun (e : Event.t) ->
          let b = (e.Event.time - t0) / width in
          match e.Event.kind with
          | Event.Alloc { layer; _ } ->
              allocs.(b) <- allocs.(b) + 1;
              if layer <> Event.Percpu then pcpu_miss.(b) <- pcpu_miss.(b) + 1
          | Event.Alloc_fail _ -> allocs.(b) <- allocs.(b) + 1
          | Event.Gbl_get { miss = true; _ } -> gbl_miss.(b) <- gbl_miss.(b) + 1
          | Event.Page_grab _ -> grabs.(b) <- grabs.(b) + 1
          | Event.Vm_denial _ -> denials.(b) <- denials.(b) + 1
          | _ -> ())
        events;
      Format.fprintf ppf "-- per-layer miss timeline (bucket = %d cycles) --@,"
        width;
      table ppf
        ~header:
          [ "t"; "allocs"; "pcpu-miss"; "gbl-miss"; "page-grab"; "vm-denial" ]
        (List.init nb (fun b ->
             [
               string_of_int (t0 + (b * width));
               string_of_int allocs.(b);
               string_of_int pcpu_miss.(b);
               string_of_int gbl_miss.(b);
               string_of_int grabs.(b);
               string_of_int denials.(b);
             ]))

(* --- page lifetimes --- *)

let pp_pages ppf events =
  let grab_at : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let grabbed = ref 0
  and returned = ref 0
  and life_total = ref 0
  and life_min = ref max_int
  and life_max = ref 0 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Page_grab { page; _ } ->
          incr grabbed;
          Hashtbl.replace grab_at page e.Event.time
      | Event.Page_return { page; _ } -> (
          incr returned;
          match Hashtbl.find_opt grab_at page with
          | None -> ()
          | Some t0 ->
              Hashtbl.remove grab_at page;
              let l = e.Event.time - t0 in
              life_total := !life_total + l;
              if l < !life_min then life_min := l;
              if l > !life_max then life_max := l)
      | _ -> ())
    events;
  Format.fprintf ppf "-- page lifetimes --@,";
  Format.fprintf ppf "pages grabbed %d, returned %d, still split %d@,"
    !grabbed !returned (Hashtbl.length grab_at);
  if !returned > 0 then
    Format.fprintf ppf "lifetime cycles: avg %d  min %d  max %d@,"
      (!life_total / !returned) !life_min !life_max

(* --- counters --- *)

let pp_counters ppf events =
  let grants = ref 0
  and reclaims = ref 0
  and denials = ref 0
  and injected = ref 0
  and carves = ref 0
  and carve_pages = ref 0
  and coalesces = ref 0
  and coalesce_pages = ref 0
  and large_ok = ref 0
  and large_fail = ref 0
  and large_free = ref 0
  and alloc_fail = ref 0 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Vm_grant -> incr grants
      | Event.Vm_reclaim -> incr reclaims
      | Event.Vm_denial { injected = i } ->
          incr denials;
          if i then incr injected
      | Event.Vmblk_carve { npages; _ } ->
          incr carves;
          carve_pages := !carve_pages + npages
      | Event.Vmblk_coalesce { npages; _ } ->
          incr coalesces;
          coalesce_pages := !coalesce_pages + npages
      | Event.Large_alloc { ok; _ } -> if ok then incr large_ok else incr large_fail
      | Event.Large_free _ -> incr large_free
      | Event.Alloc_fail _ -> incr alloc_fail
      | _ -> ())
    events;
  Format.fprintf ppf "-- vm system --@,";
  Format.fprintf ppf "grants %d  reclaims %d  denials %d (injected %d)@,"
    !grants !reclaims !denials !injected;
  Format.fprintf ppf "-- vmblk spans --@,";
  Format.fprintf ppf "carves %d (%d pages)  coalesces %d (%d pages)@," !carves
    !carve_pages !coalesces !coalesce_pages;
  if !large_ok + !large_fail + !large_free > 0 then
    Format.fprintf ppf "large allocations: ok %d  failed %d  freed %d@,"
      !large_ok !large_fail !large_free;
  if !alloc_fail > 0 then
    Format.fprintf ppf "exhaustion failures: %d@," !alloc_fail

(* --- memory pressure --- *)

(* Rendered only when the run emitted pressure events, so reports from
   pressure-free runs are unchanged. *)
let pp_pressure ppf events =
  let reaps = ref 0 and full = ref 0 in
  (* per class: shrinks, grows, lowest target seen, last target/gbltarget *)
  let adj : (int, int ref * int ref * int ref * int ref * int ref) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Reap { full = f } ->
          incr reaps;
          if f then incr full
      | Event.Target_adjust { si; target; gbltarget; grow } ->
          let shrinks, grows, lowest, last_t, last_g =
            match Hashtbl.find_opt adj si with
            | Some v -> v
            | None ->
                let v = (ref 0, ref 0, ref max_int, ref 0, ref 0) in
                Hashtbl.add adj si v;
                v
          in
          if grow then incr grows else incr shrinks;
          if target < !lowest then lowest := target;
          last_t := target;
          last_g := gbltarget
      | _ -> ())
    events;
  if !reaps > 0 || Hashtbl.length adj > 0 then begin
    Format.fprintf ppf "-- memory pressure --@,";
    Format.fprintf ppf "reaps %d (full %d)@," !reaps !full;
    let classes =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) adj [])
    in
    if classes <> [] then
      table ppf
        ~header:[ "class"; "shrinks"; "grows"; "lowest"; "target"; "gbltarget" ]
        (List.map
           (fun (si, (shrinks, grows, lowest, last_t, last_g)) ->
             [
               string_of_int si;
               string_of_int !shrinks;
               string_of_int !grows;
               string_of_int !lowest;
               string_of_int !last_t;
               string_of_int !last_g;
             ])
           classes)
  end

(* --- lockcheck violations --- *)

(* Rendered only when the run emitted violation events, so reports from
   clean runs are unchanged. *)
let pp_lockcheck ppf events =
  let by_rule : (string, int ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Lockcheck_violation { rule } -> (
          match Hashtbl.find_opt by_rule rule with
          | Some n -> incr n
          | None -> Hashtbl.add by_rule rule (ref 1))
      | _ -> ())
    events;
  if Hashtbl.length by_rule > 0 then begin
    Format.fprintf ppf "-- lockcheck violations --@,";
    List.iter
      (fun (rule, n) -> Format.fprintf ppf "%s: %d@," rule n)
      (List.sort compare
         (Hashtbl.fold (fun k v acc -> (k, !v) :: acc) by_rule []))
  end

(* --- heapcheck violations --- *)

(* Same contract as the lockcheck section: rendered only when the run
   emitted violation events. *)
let pp_heapcheck ppf events =
  let by_rule : (string, int ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Heapcheck_violation { rule } -> (
          match Hashtbl.find_opt by_rule rule with
          | Some n -> incr n
          | None -> Hashtbl.add by_rule rule (ref 1))
      | _ -> ())
    events;
  if Hashtbl.length by_rule > 0 then begin
    Format.fprintf ppf "-- heapcheck violations --@,";
    List.iter
      (fun (rule, n) -> Format.fprintf ppf "%s: %d@," rule n)
      (List.sort compare
         (Hashtbl.fold (fun k v acc -> (k, !v) :: acc) by_rule []))
  end

let pp ?(buckets = 10) ppf r =
  let events = Recorder.events r in
  Format.fprintf ppf "@[<v>=== flight recorder report ===@,";
  Format.fprintf ppf "events: retained %d of %d emitted (oob %d)@,"
    (Recorder.recorded r) (Recorder.total r) (Recorder.oob r);
  let drops =
    List.init (Recorder.ncpus r) (fun cpu ->
        Printf.sprintf "cpu%d=%d" cpu (Recorder.drops r ~cpu))
  in
  Format.fprintf ppf "ring drops: %s@," (String.concat " " drops);
  pp_locks ppf r events;
  pp_timeline ppf ~buckets events;
  pp_pages ppf events;
  pp_counters ppf events;
  pp_pressure ppf events;
  pp_lockcheck ppf events;
  pp_heapcheck ppf events;
  Format.fprintf ppf "@]"

let to_string ?buckets r = Format.asprintf "%a" (pp ?buckets) r
