(** Public umbrella API for the reproduction of "The Impact of Communication
    Models on Routing-Algorithm Convergence" (Jaggard, Ramachandran, Wright;
    ICDCS 2009 / DIMACS TR 2008-06).

    - {!Spp}: the Stable Paths Problem substrate — instances, solver,
      dispute wheels, the paper's gadgets, random generators.
    - {!Engine}: the execution semantics of Defs. 2.2–2.3 — channels,
      activation entries, the 24-model taxonomy, schedulers, traces.
    - {!Realization}: Sec. 3's theory — relation levels, constructive
      transforms, the fact base and closure engine regenerating Figures
      3–4, and the transcribed paper tables.
    - {!Modelcheck}: bounded explicit-state verification of per-model
      oscillation/convergence claims, with replayable witnesses; one
      fair-cycle analysis ({!Modelcheck.Fair}) serves every explorer.
    - {!Protocols}: instances of the protocol-generic engine core
      ({!Engine.Protocol.S}) — path-vector, gossip, push-sum — runnable
      and explorable under every model via {!Engine.Generic.Make} and
      {!Modelcheck.Gexplore.Make}, which shares that analysis.
    - {!Bgp}: a Gao–Rexford BGP substrate compiled onto the SPP engine,
      with the BGP-configuration-to-model mapping of Sec. 2.3/4. *)

module Spp = Spp
module Engine = Engine
module Realization = Realization
module Modelcheck = Modelcheck
module Protocols = Protocols
module Bgp = Bgp
