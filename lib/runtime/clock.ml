(* Real-time clock used by the engines, in nanoseconds.

   [Unix.gettimeofday] is the only clock the preinstalled libraries give
   us from library code. Microsecond resolution is plenty: the engines burn
   calibrated spin-work per task, so intervals of interest are >= 1 us,
   and all timestamps within one run are differences against the run's
   own epoch, which also keeps the float arithmetic well-conditioned. *)

let now_ns () = Unix.gettimeofday () *. 1e9
