(* Per-domain counter cells, aggregated on read.  Registration is a CAS
   push onto an immutable list, so a racing reader sees either the old
   or the new list — both safe. *)

type cell = {
  mutable allocs : int;
  mutable frees : int;
  mutable creates : int;
  mutable depot_gets : int;
  mutable depot_puts : int;
  mutable drops : int;
  mutable depot_acquires : int;
  mutable depot_contended : int;
  mutable grows : int;
  mutable prefills : int;
}

type t = { cells : cell list Atomic.t }

let create () = { cells = Atomic.make [] }

let register t =
  let c =
    {
      allocs = 0;
      frees = 0;
      creates = 0;
      depot_gets = 0;
      depot_puts = 0;
      drops = 0;
      depot_acquires = 0;
      depot_contended = 0;
      grows = 0;
      prefills = 0;
    }
  in
  let rec push () =
    let old = Atomic.get t.cells in
    if not (Atomic.compare_and_set t.cells old (c :: old)) then push ()
  in
  push ();
  c

let sum t field = List.fold_left (fun acc c -> acc + field c) 0 (Atomic.get t.cells)

let allocs t = sum t (fun c -> c.allocs)
let frees t = sum t (fun c -> c.frees)
let creates t = sum t (fun c -> c.creates)
let depot_gets t = sum t (fun c -> c.depot_gets)
let depot_puts t = sum t (fun c -> c.depot_puts)
let drops t = sum t (fun c -> c.drops)
let depot_acquires t = sum t (fun c -> c.depot_acquires)
let depot_contended t = sum t (fun c -> c.depot_contended)
let grows t = sum t (fun c -> c.grows)
let prefills t = sum t (fun c -> c.prefills)

type snapshot = {
  s_allocs : int;
  s_frees : int;
  s_creates : int;
  s_depot_gets : int;
  s_depot_puts : int;
  s_drops : int;
  s_depot_acquires : int;
  s_depot_contended : int;
  s_grows : int;
  s_shrinks : int;
  s_prefills : int;
}

let read t =
  {
    s_allocs = allocs t;
    s_frees = frees t;
    s_creates = creates t;
    s_depot_gets = depot_gets t;
    s_depot_puts = depot_puts t;
    s_drops = drops t;
    s_depot_acquires = depot_acquires t;
    s_depot_contended = depot_contended t;
    s_grows = grows t;
    s_shrinks = 0;
    s_prefills = prefills t;
  }

let magazine_hit_rate t =
  let a = allocs t in
  if a = 0 then Float.nan
  else 1. -. (float_of_int (depot_gets t) /. float_of_int a)

let contention_rate t =
  let a = depot_acquires t in
  if a = 0 then Float.nan
  else float_of_int (depot_contended t) /. float_of_int a
