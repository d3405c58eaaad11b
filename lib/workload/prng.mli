(** {!Sim.Prng} under the workload library's name, for the workload
    generators and benchmark drivers that draw from it.  Reproduction
    infrastructure with no paper counterpart. *)

include module type of struct
  include Sim.Prng
end
