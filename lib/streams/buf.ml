open Sim

type t = { a : Baseline.Allocator.t }

let create a = { a }
let allocator t = t.a

let bpw = Kma.Params.bytes_per_word

let round_buf_bytes bytes = max 16 ((bytes + bpw - 1) / bpw * bpw)

let alloc t ~bytes = t.a.Baseline.Allocator.alloc ~bytes
let dealloc t ~addr ~bytes = t.a.Baseline.Allocator.free ~addr ~bytes

let allocb t ~bytes =
  let buf_bytes = round_buf_bytes bytes in
  let mblk = alloc t ~bytes:Msg.mblk_bytes in
  if mblk = 0 then 0
  else begin
    let dblk = alloc t ~bytes:Msg.dblk_bytes in
    if dblk = 0 then begin
      dealloc t ~addr:mblk ~bytes:Msg.mblk_bytes;
      0
    end
    else begin
      let buf = alloc t ~bytes:buf_bytes in
      if buf = 0 then begin
        dealloc t ~addr:dblk ~bytes:Msg.dblk_bytes;
        dealloc t ~addr:mblk ~bytes:Msg.mblk_bytes;
        0
      end
      else begin
        Machine.write (mblk + Msg.b_next) 0;
        Machine.write (mblk + Msg.b_prev) 0;
        Machine.write (mblk + Msg.b_cont) 0;
        Machine.write (mblk + Msg.b_rptr) buf;
        Machine.write (mblk + Msg.b_wptr) buf;
        Machine.write (mblk + Msg.b_datap) dblk;
        Machine.write (dblk + Msg.db_base) buf;
        Machine.write (dblk + Msg.db_lim) (buf + (buf_bytes / bpw));
        Machine.write (dblk + Msg.db_ref) 1;
        Machine.write (dblk + Msg.db_type) Msg.m_data;
        mblk
      end
    end
  end

let freeb t mblk =
  let dblk = Machine.read (mblk + Msg.b_datap) in
  let refcnt = Machine.read (dblk + Msg.db_ref) in
  if refcnt > 1 then Machine.write (dblk + Msg.db_ref) (refcnt - 1)
  else begin
    let base = Machine.read (dblk + Msg.db_base) in
    let lim = Machine.read (dblk + Msg.db_lim) in
    dealloc t ~addr:base ~bytes:((lim - base) * bpw);
    dealloc t ~addr:dblk ~bytes:Msg.dblk_bytes
  end;
  dealloc t ~addr:mblk ~bytes:Msg.mblk_bytes

let dupb t mblk =
  let m2 = alloc t ~bytes:Msg.mblk_bytes in
  if m2 = 0 then 0
  else begin
    let dblk = Machine.read (mblk + Msg.b_datap) in
    Machine.write (m2 + Msg.b_next) 0;
    Machine.write (m2 + Msg.b_prev) 0;
    Machine.write (m2 + Msg.b_cont) 0;
    Machine.write (m2 + Msg.b_rptr) (Machine.read (mblk + Msg.b_rptr));
    Machine.write (m2 + Msg.b_wptr) (Machine.read (mblk + Msg.b_wptr));
    Machine.write (m2 + Msg.b_datap) dblk;
    Machine.write (dblk + Msg.db_ref) (Machine.read (dblk + Msg.db_ref) + 1);
    m2
  end

let rec last_block mblk =
  let cont = Machine.read (mblk + Msg.b_cont) in
  if cont = 0 then mblk else last_block cont

let linkb _t msg tail = Machine.write (last_block msg + Msg.b_cont) tail

let rec freemsg t msg =
  if msg <> 0 then begin
    let cont = Machine.read (msg + Msg.b_cont) in
    freeb t msg;
    freemsg t cont
  end

let msgdsize _t msg =
  let rec go mblk acc =
    if mblk = 0 then acc
    else
      let dblk = Machine.read (mblk + Msg.b_datap) in
      let acc =
        if Machine.read (dblk + Msg.db_type) = Msg.m_data then
          acc
          + (Machine.read (mblk + Msg.b_wptr)
             - Machine.read (mblk + Msg.b_rptr))
            * bpw
        else acc
      in
      go (Machine.read (mblk + Msg.b_cont)) acc
  in
  go msg 0

let put_byte_word _t mblk v =
  let wptr = Machine.read (mblk + Msg.b_wptr) in
  let dblk = Machine.read (mblk + Msg.b_datap) in
  (* Host-side check: the writer owns the message, and a data block's
     limit is fixed from [allocb] to its last [freeb]. *)
  assert (wptr < Machine.peek (dblk + Msg.db_lim));
  Machine.write wptr v;
  Machine.write (mblk + Msg.b_wptr) (wptr + 1)
