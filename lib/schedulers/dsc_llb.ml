open! Flb_taskgraph
open! Flb_platform

let run ?priority g machine = Llb.run ?priority g machine (Dsc.cluster g)
