type pressure_state = {
  mutable enabled : bool;
  desired_targets : int array;
  desired_gbltargets : int array;
  pcc_targets : int array;
  mutable below_default : int;
  mutable denial_streak : int;
  mutable grants_snapshot : int;
  mutable denials_snapshot : int;
  mutable clean_allocs : int;
}

type t = {
  machine : Sim.Machine.t;
  layout : Layout.t;
  vmsys : Sim.Vmsys.t;
  stats : Kstats.t;
  glocks : Sim.Spinlock.t array;
  plocks : Sim.Spinlock.t array;
  vlock : Sim.Spinlock.t;
  pressure : pressure_state;
  numa_global : bool;
}

let memory t = Sim.Machine.memory t.machine
let params t = t.layout.Layout.params

let make_pressure_state ~ncpus ~(params : Params.t) =
  let nsizes = Params.nsizes params in
  {
    enabled = false;
    desired_targets = Array.copy params.Params.targets;
    desired_gbltargets = Array.copy params.Params.gbltargets;
    pcc_targets =
      Array.init (ncpus * nsizes) (fun i ->
          params.Params.targets.(i mod nsizes));
    below_default = 0;
    denial_streak = 0;
    grants_snapshot = 0;
    denials_snapshot = 0;
    clean_allocs = 0;
  }

