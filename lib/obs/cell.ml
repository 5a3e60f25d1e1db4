type 'a t = {
  mu : Mutex.t;
  cells : (int * 'a) list ref; (* (domain id, value), newest first *)
  key : 'a Domain.DLS.key;
}

let create make =
  let mu = Mutex.create () and cells = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let v = make () in
        Mutex.protect mu (fun () ->
            cells := ((Domain.self () :> int), v) :: !cells);
        v)
  in
  { mu; cells; key }

let get t = Domain.DLS.get t.key

let fold f acc t =
  let cells = Mutex.protect t.mu (fun () -> !(t.cells)) in
  List.fold_left (fun acc (id, v) -> f acc id v) acc (List.rev cells)
