(* Real-time clock used by the engines, in nanoseconds.

   [Unix.gettimeofday] is the only clock the preinstalled libraries give
   us from library code. Microsecond resolution is plenty: the engines burn
   calibrated spin-work per task, so intervals of interest are >= 1 us,
   and all timestamps within one run are differences against the run's
   own epoch. The reading is taken relative to the process's first one
   before it is scaled: absolute nanoseconds since 1970 are spaced 256 ns
   apart as floats, so a message's arrival [finish + comm * unit_ns]
   could round up to 128 ns early and a charged wait come out short. *)

let epoch = Unix.gettimeofday ()

let now_ns () = (Unix.gettimeofday () -. epoch) *. 1e9
