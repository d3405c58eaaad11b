open Sim

(* Control block (one 4096-byte kmem allocation): per-CPU records of
   [line] words each, holding the head and count of a singly-linked
   list of constructed objects (linked through their first word, like
   every freelist here — constructors must therefore treat word 0 as
   scratch, which they do since they run before the object is handed
   out). *)

let ctl_bytes = 4096

type t = {
  kmem : Kmem.t;
  cookie : Cookie.t;
  bytes : int;
  ctor : int -> unit;
  dtor : (int -> unit) option;
  target : int;
  ctl : int;
  stride : int;
  mutable nctor : int;
  mutable nreuse : int;
}

let pcc t ~cpu = t.ctl + (cpu * t.stride)
let o_head = 0
let o_count = 1

let create kmem ~bytes ~ctor ?dtor ?(target = 8) () =
  if target < 1 then invalid_arg "Kma.Objcache.create: target < 1";
  let ly = Kmem.layout kmem in
  let stride = ly.Layout.line_words in
  if ly.Layout.ncpus * stride * Params.bytes_per_word > ctl_bytes then
    invalid_arg "Kma.Objcache.create: too many CPUs for the control block";
  let cookie = Cookie.of_bytes_host kmem ~bytes in
  match Kmem.try_alloc kmem ~bytes:ctl_bytes with
  | None -> None
  | Some ctl ->
      for cpu = 0 to ly.Layout.ncpus - 1 do
        Machine.write (ctl + (cpu * stride) + o_head) 0;
        Machine.write (ctl + (cpu * stride) + o_count) 0
      done;
      Some
        {
          kmem;
          cookie;
          bytes;
          ctor;
          dtor;
          target;
          ctl;
          stride;
          nctor = 0;
          nreuse = 0;
        }

let alloc t =
  let cpu = Machine.cpu_id () in
  let p = pcc t ~cpu in
  Machine.irq_disable ();
  let head = Machine.read (p + o_head) in
  let obj =
    if head <> 0 then begin
      Machine.write (p + o_head) (Machine.read head);
      Machine.write (p + o_count) (Machine.read (p + o_count) - 1);
      Machine.irq_enable ();
      t.nreuse <- t.nreuse + 1;
      if Trace.on () then
        Trace.emit (Flightrec.Event.Obj_alloc { hit = true });
      head
    end
    else begin
      Machine.irq_enable ();
      if Trace.on () then
        Trace.emit (Flightrec.Event.Obj_alloc { hit = false });
      match Cookie.try_alloc t.kmem t.cookie with
      | None -> 0
      | Some a ->
          t.nctor <- t.nctor + 1;
          (* Caller code may touch host state other CPUs share. *)
          Machine.sync ();
          t.ctor a;
          a
    end
  in
  obj

let release t addr =
  let cpu = Machine.cpu_id () in
  let p = pcc t ~cpu in
  Machine.irq_disable ();
  let count = Machine.read (p + o_count) in
  if count < t.target then begin
    Machine.write addr (Machine.read (p + o_head));
    Machine.write (p + o_head) addr;
    Machine.write (p + o_count) (count + 1);
    Machine.irq_enable ();
    if Trace.on () then
      Trace.emit (Flightrec.Event.Obj_free { cached = true })
  end
  else begin
    Machine.irq_enable ();
    if Trace.on () then
      Trace.emit (Flightrec.Event.Obj_free { cached = false });
    (match t.dtor with
    | Some d ->
        Machine.sync ();
        d addr
    | None -> ());
    Cookie.free t.kmem t.cookie addr
  end

let destroy t =
  let ly = Kmem.layout t.kmem in
  for cpu = 0 to ly.Layout.ncpus - 1 do
    let p = pcc t ~cpu in
    let rec drain obj =
      if obj <> 0 then begin
        let next = Machine.read obj in
        (match t.dtor with Some d -> d obj | None -> ());
        Cookie.free t.kmem t.cookie obj;
        drain next
      end
    in
    drain (Machine.read (p + o_head));
    Machine.write (p + o_head) 0;
    Machine.write (p + o_count) 0
  done;
  Kmem.free t.kmem ~addr:t.ctl ~bytes:ctl_bytes

let ctor_calls t = t.nctor
let reuses t = t.nreuse
