let mblk_bytes = 32
let b_next = 0
let b_prev = 1
let b_cont = 2
let b_rptr = 3
let b_wptr = 4
let b_datap = 5

let dblk_bytes = 32
let db_base = 0
let db_lim = 1
let db_ref = 2
let db_type = 3

let m_data = 0
