(* Get_metrics scrapes: the counters a process already exports, read
   before and after a timed window so their difference covers exactly
   that window. *)

module Client = Flb_service.Client

type t = (string * float) list

let parse text : t =
  List.filter_map
    (fun line ->
      if line = "" || line.[0] = '#' then None
      else
        match String.index_opt line ' ' with
        | None -> None
        | Some i -> (
          let name = String.sub line 0 i in
          match float_of_string_opt (String.trim (String.sub line i (String.length line - i))) with
          | Some v -> Some (name, v)
          | None -> None))
    (String.split_on_char '\n' text)

let fetch ~port : t =
  match Client.get_metrics (Conns.get ~port ~slot:Conns.control) with
  | Ok text -> parse text
  | Error msg -> failwith ("Get_metrics: " ^ msg)

let get (t : t) name = Option.value ~default:0.0 (List.assoc_opt name t)

(* Counter increase over the window. *)
let delta ~before ~after name = get after name -. get before name

(* Every sample whose name matches [prefix ... suffix], e.g. the
   per-backend forward counters of a router. *)
let matching (t : t) ~prefix ~suffix =
  List.filter
    (fun (name, _) ->
      String.starts_with ~prefix name && String.ends_with ~suffix name)
    t
