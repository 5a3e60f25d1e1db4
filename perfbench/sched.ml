(* Open-loop arrival schedules. Arrivals are a Poisson process: the gaps
   are exponential with mean [1 / rate], drawn from a splitmix stream
   seeded by the workload seed, so a seed fixes every send time. *)

module Rng = Svr_workload.Rng

(* Arrival offsets (seconds) in [start, start + duration). *)
let poisson rng ~rate ~start ~duration =
  if rate <= 0.0 then invalid_arg "Sched.poisson: rate must be > 0";
  let out = ref [] and t = ref start in
  let stop = start +. duration in
  let continue = ref true in
  while !continue do
    (* 1 - u lies in (0, 1], so the log is finite *)
    let u = 1.0 -. Rng.float rng 1.0 in
    t := !t -. (log u /. rate);
    if !t < stop then out := !t :: !out else continue := false
  done;
  Array.of_list (List.rev !out)

type phase = { rate : float; start : float; duration : float }

type event = { at : float; kind : [ `Query of int | `Update of int ]; phase : int }

(* The whole run: query arrivals phase by phase (each phase its own rate)
   merged with an update stream of [update_rate] spanning every phase.
   Query and update indices count from 0 in arrival order. Query and update
   streams draw from independent splits of [seed]. *)
let build ~seed ~phases ~update_rate =
  let root = Rng.create seed in
  let qrng = Rng.split root 1 and urng = Rng.split root 2 in
  let qs =
    List.concat
      (List.mapi
         (fun i p ->
           Array.to_list
             (Array.map (fun at -> (at, i))
                (poisson qrng ~rate:p.rate ~start:p.start ~duration:p.duration)))
         phases)
  in
  let horizon =
    List.fold_left (fun acc p -> Float.max acc (p.start +. p.duration)) 0.0 phases
  in
  let phase_of at =
    let rec go i = function
      | [] -> max 0 (i - 1)
      | p :: rest -> if at < p.start +. p.duration then i else go (i + 1) rest
    in
    go 0 phases
  in
  let us =
    if update_rate <= 0.0 then [||]
    else poisson urng ~rate:update_rate ~start:0.0 ~duration:horizon
  in
  let qev = List.mapi (fun i (at, ph) -> { at; kind = `Query i; phase = ph }) qs in
  let uev =
    Array.to_list
      (Array.mapi (fun i at -> { at; kind = `Update i; phase = phase_of at }) us)
  in
  Array.of_list (List.stable_sort (fun a b -> Float.compare a.at b.at) (qev @ uev))
