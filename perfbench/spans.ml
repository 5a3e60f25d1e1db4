(* In-memory spans recorded around the benchmark's own calls into the
   library. A span has a name, start and end (seconds), the id of the span
   that caused it (-1 for a root) and the request id it belongs to. Spans
   are appended on the measured path and written out once, at run end. *)

type span = {
  id : int;
  name : string;
  parent : int;
  req : int;
  start : float;
  stop : float;
}

type t = { mu : Mutex.t; mutable spans : span list; next : int Atomic.t }

let create () = { mu = Mutex.create (); spans = []; next = Atomic.make 0 }

(* A span's id is taken when it opens, so children finishing first can
   name it as their parent. *)
let fresh t = Atomic.fetch_and_add t.next 1

(* Record a finished interval. Thread-safe: the open-loop generator
   records from two threads. *)
let add t ~id ~name ~parent ~req ~start ~stop =
  Mutex.protect t.mu (fun () ->
      t.spans <- { id; name; parent; req; start; stop } :: t.spans)

let to_array t =
  Mutex.protect t.mu (fun () ->
      let a = Array.of_list t.spans in
      Array.sort (fun x y -> compare x.id y.id) a;
      a)

(* Total length of the union of [ivs], each clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then go acc (Some (ca, Float.max cb b)) rest
            else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None clipped

(* Self time of every span, indexed like [spans]: its duration minus the
   part of its interval that its children cover (overlapping children
   count once, time outside the parent not at all). *)
let self_times (spans : span array) =
  let children = Hashtbl.create (Array.length spans) in
  Array.iter
    (fun s ->
      if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  Array.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids)
    spans

(* Self times of the spans named [name]. *)
let self_of spans selfs name =
  let out = Stat.Buf.create () in
  Array.iteri (fun i s -> if s.name = name then Stat.Buf.add out selfs.(i)) spans;
  Stat.Buf.to_array out

let write_tsv path (spans : span array) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tparent\treq\tname\tstart_s\tend_s\n";
      Array.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%.6f\t%.6f\n" s.id s.parent s.req
            s.name s.start s.stop)
        spans)
