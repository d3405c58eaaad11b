type layer = Percpu | Global | Pagepool | Vmblk | Kmem

let layer_name = function
  | Percpu -> "percpu"
  | Global -> "global"
  | Pagepool -> "pagepool"
  | Vmblk -> "vmblk"
  | Kmem -> "kmem"

type kind =
  | Alloc of { si : int; layer : layer }
  | Alloc_fail of { si : int }
  | Free of { si : int; layer : layer }
  | Gbl_get of { si : int; miss : bool }
  | Gbl_put of { si : int; drain : bool }
  | Page_grab of { si : int; page : int }
  | Page_return of { si : int; page : int }
  | Vmblk_carve of { npages : int; page : int }
  | Vmblk_coalesce of { npages : int; page : int }
  | Large_alloc of { npages : int; ok : bool }
  | Large_free of { npages : int }
  | Lock_acquire of { lock : int; spins : int }
  | Lock_release of { lock : int }
  | Vm_grant
  | Vm_reclaim
  | Vm_denial of { injected : bool }
  | Reap of { full : bool }
  | Target_adjust of { si : int; target : int; gbltarget : int; grow : bool }
  | Lockcheck_violation of { rule : string }
  | Heapcheck_violation of { rule : string }

type t = { time : int; cpu : int; kind : kind }

let si_of = function
  | Alloc { si; _ }
  | Alloc_fail { si }
  | Free { si; _ }
  | Gbl_get { si; _ }
  | Gbl_put { si; _ }
  | Page_grab { si; _ }
  | Page_return { si; _ }
  | Target_adjust { si; _ } ->
      Some si
  | Vmblk_carve _ | Vmblk_coalesce _ | Large_alloc _ | Large_free _
  | Lock_acquire _ | Lock_release _ | Vm_grant | Vm_reclaim | Vm_denial _
  | Reap _ | Lockcheck_violation _ | Heapcheck_violation _ ->
      None

let pp_kind ppf = function
  | Alloc { si; layer } ->
      Format.fprintf ppf "alloc si=%d layer=%s" si (layer_name layer)
  | Alloc_fail { si } -> Format.fprintf ppf "alloc-fail si=%d" si
  | Free { si; layer } ->
      Format.fprintf ppf "free si=%d layer=%s" si (layer_name layer)
  | Gbl_get { si; miss } -> Format.fprintf ppf "gbl-get si=%d miss=%b" si miss
  | Gbl_put { si; drain } ->
      Format.fprintf ppf "gbl-put si=%d drain=%b" si drain
  | Page_grab { si; page } ->
      Format.fprintf ppf "page-grab si=%d page=%d" si page
  | Page_return { si; page } ->
      Format.fprintf ppf "page-return si=%d page=%d" si page
  | Vmblk_carve { npages; page } ->
      Format.fprintf ppf "vmblk-carve npages=%d page=%d" npages page
  | Vmblk_coalesce { npages; page } ->
      Format.fprintf ppf "vmblk-coalesce npages=%d page=%d" npages page
  | Large_alloc { npages; ok } ->
      Format.fprintf ppf "large-alloc npages=%d ok=%b" npages ok
  | Large_free { npages } -> Format.fprintf ppf "large-free npages=%d" npages
  | Lock_acquire { lock; spins } ->
      Format.fprintf ppf "lock-acquire lock=%d spins=%d" lock spins
  | Lock_release { lock } -> Format.fprintf ppf "lock-release lock=%d" lock
  | Vm_grant -> Format.pp_print_string ppf "vm-grant"
  | Vm_reclaim -> Format.pp_print_string ppf "vm-reclaim"
  | Vm_denial { injected } -> Format.fprintf ppf "vm-denial injected=%b" injected
  | Reap { full } -> Format.fprintf ppf "reap full=%b" full
  | Target_adjust { si; target; gbltarget; grow } ->
      Format.fprintf ppf "target-adjust si=%d target=%d gbltarget=%d grow=%b"
        si target gbltarget grow
  | Lockcheck_violation { rule } ->
      Format.fprintf ppf "lockcheck-violation rule=%s" rule
  | Heapcheck_violation { rule } ->
      Format.fprintf ppf "heapcheck-violation rule=%s" rule

let pp ppf { time; cpu; kind } =
  Format.fprintf ppf "[%8d] cpu%d %a" time cpu pp_kind kind
