include Sim.Prng
