(** STREAMS message structures in simulated memory.

    A message is a chain of message blocks ([mblk]); each points at a
    data block ([dblk]) that owns a data buffer.  Several message blocks
    may reference one data block ([dupb]), with a reference count in the
    dblk — exactly the three-structure layout [allocb] must assemble,
    which the paper uses to motivate reusable special-purpose
    allocators.

    Field offsets are in words from the structure base.

    Message block (8 words, 32 bytes): [b_next]/[b_prev] link messages
    on a queue, [b_cont] links blocks of one message, [b_rptr]/[b_wptr]
    bound the valid data, [b_datap] points at the data block.

    Data block (8 words, 32 bytes): [db_base]/[db_lim] bound the buffer,
    [db_ref] is the reference count, [db_type] the message type
    ([m_data], [m_proto] or [m_ctl]). *)

val mblk_bytes : int
val b_next : int
val b_prev : int
val b_cont : int
val b_rptr : int
val b_wptr : int
val b_datap : int

val dblk_bytes : int
val db_base : int
val db_lim : int
val db_ref : int
val db_type : int

val m_data : int
val m_proto : int
val m_ctl : int
