(* The scheduler table under the name the serving benchmark (perfbench/)
   looks it up by. *)
include Flb_reschedule.Registry
