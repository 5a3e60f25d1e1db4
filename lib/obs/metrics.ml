(* Each counter/histogram is a {!Cell} set: increments touch
   domain-private records, reads fold over them. The global registry maps
   (name, labels) to collectors so independently-created components
   (pagers, WALs, indexes across environments) share series. *)

let n_buckets = 41 (* 40 finite log2 buckets + overflow *)
let default_base = 0.001

type counter = int ref Cell.t

type hist_cell = {
  hc_buckets : int array; (* n_buckets *)
  mutable hc_sum : float;
  mutable hc_count : int;
}

type histogram = { h_base : float; h_cells : hist_cell Cell.t }

type collector =
  | C of counter
  | G of (unit -> float)
  | H of histogram

type entry = { help : string; coll : collector }

let registry_mu = Mutex.create ()

let registry : (string * (string * string) list, entry) Hashtbl.t =
  Hashtbl.create 32

let with_registry f =
  Mutex.lock registry_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mu) f

let register ~help ~labels name make same =
  with_registry (fun () ->
      match Hashtbl.find_opt registry (name, labels) with
      | Some { coll; _ } -> (
          match same coll with
          | Some c -> c
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %s re-registered with another type"
                   name))
      | None ->
          let c = make () in
          Hashtbl.replace registry (name, labels) { help; coll = c };
          c)

(* -- counters ------------------------------------------------------------- *)

let counter ?(help = "") ?(labels = []) name =
  match
    register ~help ~labels name
      (fun () -> C (Cell.create (fun () -> ref 0)))
      (function C c -> Some (C c) | _ -> None)
  with
  | C c -> c
  | _ -> assert false

let add c n =
  let cell = Cell.get c in
  cell := !cell + n

let inc c = add c 1
let counter_value c = Cell.fold (fun acc _ cell -> acc + !cell) 0 c

(* -- gauges --------------------------------------------------------------- *)

let gauge ?(help = "") ?(labels = []) name f =
  with_registry (fun () ->
      Hashtbl.replace registry (name, labels) { help; coll = G f })

(* -- histograms ----------------------------------------------------------- *)

let new_hist_cell () =
  { hc_buckets = Array.make n_buckets 0; hc_sum = 0.; hc_count = 0 }

let histogram ?(help = "") ?(labels = []) ?(base = default_base) name =
  match
    register ~help ~labels name
      (fun () -> H { h_base = base; h_cells = Cell.create new_hist_cell })
      (function H h -> Some (H h) | _ -> None)
  with
  | H h -> h
  | _ -> assert false

(* smallest i with v <= base * 2^i, clamped into [0, n_buckets-1] *)
let bucket_of h v =
  if not (v > h.h_base) then 0
  else begin
    let m, e = Float.frexp (v /. h.h_base) in
    (* v/base = m * 2^e with m in [0.5, 1): log2 = e iff m = 0.5 exactly *)
    let i = if m = 0.5 then e - 1 else e in
    if i >= n_buckets then n_buckets - 1 else i
  end

let observe h v =
  let cell = Cell.get h.h_cells in
  let i = bucket_of h v in
  cell.hc_buckets.(i) <- cell.hc_buckets.(i) + 1;
  cell.hc_sum <- cell.hc_sum +. v;
  cell.hc_count <- cell.hc_count + 1

let hist_agg h =
  Cell.fold
    (fun (buckets, sum, count) _ cell ->
      Array.iteri (fun i n -> buckets.(i) <- buckets.(i) + n) cell.hc_buckets;
      (buckets, sum +. cell.hc_sum, count + cell.hc_count))
    (Array.make n_buckets 0, 0., 0)
    h.h_cells

let hist_count h =
  let _, _, count = hist_agg h in
  count

let hist_sum h =
  let _, sum, _ = hist_agg h in
  sum

let bound h i =
  if i = n_buckets - 1 then infinity else h.h_base *. (2. ** float_of_int i)

(* the non-empty buckets as ascending (upper bound, count) pairs, sum, count *)
let hist_export h =
  let buckets, sum, count = hist_agg h in
  let bs = ref [] in
  for i = n_buckets - 1 downto 0 do
    if buckets.(i) <> 0 then bs := (bound h i, buckets.(i)) :: !bs
  done;
  (!bs, sum, count)

(* -- quantiles ------------------------------------------------------------ *)

(* Quantile estimate from non-cumulative (upper-bound, count) pairs in
   ascending bound order, linearly interpolated inside the containing
   bucket. Bucket lower bounds follow the log2 layout: the first bucket
   covers (0, base], every later one (le/2, le]. A quantile landing in
   the +inf overflow bucket reports that bucket's lower bound — the
   tightest claim the data supports. nan when the histogram is empty. *)
let quantile_of ~base buckets count q =
  if count <= 0 then Float.nan
  else begin
    let target = q *. float_of_int count in
    let rec walk cum = function
      | [] -> Float.nan
      | (le, n) :: rest ->
          let cum' = cum +. float_of_int n in
          if cum' >= target && n > 0 then
            if le = infinity then base *. (2. ** float_of_int (n_buckets - 2))
            else
              let lo = if le <= base then 0. else le /. 2. in
              lo +. ((le -. lo) *. (target -. cum) /. float_of_int n)
          else walk cum' rest
    in
    walk 0. buckets
  end

let hist_quantile h q =
  let buckets, _, count = hist_export h in
  quantile_of ~base:h.h_base buckets count q

(* -- export --------------------------------------------------------------- *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of
      { base : float; buckets : (float * int) list; sum : float; count : int }

let snapshot () =
  let entries =
    with_registry (fun () ->
        Hashtbl.fold (fun k e acc -> (k, e) :: acc) registry [])
  in
  entries
  |> List.map (fun (k, { coll; _ }) ->
         let v =
           match coll with
           | C c -> Counter (counter_value c)
           | G f -> Gauge (f ())
           | H h ->
               let buckets, sum, count = hist_export h in
               Histogram { base = h.h_base; buckets; sum; count }
         in
         (k, v))
  |> List.sort compare

let reset () =
  let entries =
    with_registry (fun () ->
        Hashtbl.fold (fun _ e acc -> e.coll :: acc) registry [])
  in
  List.iter
    (function
      | C c -> Cell.fold (fun () _ cell -> cell := 0) () c
      | G _ -> ()
      | H h ->
          Cell.fold
            (fun () _ cell ->
              Array.fill cell.hc_buckets 0 n_buckets 0;
              cell.hc_sum <- 0.;
              cell.hc_count <- 0)
            () h.h_cells)
    entries

(* the percentile estimates every histogram exports alongside its buckets *)
let export_quantiles = [ 0.5; 0.9; 0.99 ]

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "[";
  List.iteri
    (fun i ((name, labels), v) ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b "\n  {";
      Buffer.add_string b (Printf.sprintf "\"name\":\"%s\"" (json_escape name));
      if labels <> [] then begin
        Buffer.add_string b ",\"labels\":{";
        List.iteri
          (fun j (k, lv) ->
            if j > 0 then Buffer.add_string b ",";
            Buffer.add_string b
              (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape lv)))
          labels;
        Buffer.add_string b "}"
      end;
      (match v with
      | Counter n ->
          Buffer.add_string b
            (Printf.sprintf ",\"type\":\"counter\",\"value\":%d" n)
      | Gauge g ->
          Buffer.add_string b
            (Printf.sprintf ",\"type\":\"gauge\",\"value\":%s"
               (if Float.is_nan g then "null" else float_str g))
      | Histogram { base; buckets; sum; count } ->
          Buffer.add_string b
            (Printf.sprintf ",\"type\":\"histogram\",\"count\":%d,\"sum\":%s"
               count (float_str sum));
          Buffer.add_string b ",\"buckets\":[";
          List.iteri
            (fun j (le, n) ->
              if j > 0 then Buffer.add_string b ",";
              Buffer.add_string b
                (Printf.sprintf "[%s,%d]"
                   (if le = infinity then "\"inf\"" else float_str le)
                   n))
            buckets;
          Buffer.add_string b "]";
          if count > 0 then begin
            Buffer.add_string b ",\"quantiles\":{";
            List.iteri
              (fun j q ->
                if j > 0 then Buffer.add_string b ",";
                Buffer.add_string b
                  (Printf.sprintf "\"%g\":%s" q
                     (float_str (quantile_of ~base buckets count q))))
              export_quantiles;
            Buffer.add_string b "}"
          end);
      Buffer.add_string b "}")
    (snapshot ());
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let prom_labels labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
    ^ "}"

let prom_labels_le labels le =
  let le_s = if le = infinity then "+Inf" else float_str le in
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels
      @ [ Printf.sprintf "le=%S" le_s ])
  ^ "}"

let to_prometheus () =
  let b = Buffer.create 1024 in
  let seen_type = Hashtbl.create 16 in
  let header name kind =
    if not (Hashtbl.mem seen_type name) then begin
      Hashtbl.add seen_type name ();
      let help =
        with_registry (fun () ->
            Hashtbl.fold
              (fun (n, _) e acc -> if n = name && e.help <> "" then e.help else acc)
              registry "")
      in
      if help <> "" then
        Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun ((name, labels), v) ->
      match v with
      | Counter n ->
          header name "counter";
          Buffer.add_string b
            (Printf.sprintf "%s%s %d\n" name (prom_labels labels) n)
      | Gauge g ->
          header name "gauge";
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" name (prom_labels labels)
               (if Float.is_nan g then "NaN" else float_str g))
      | Histogram { base; buckets; sum; count } ->
          header name "histogram";
          let cum = ref 0 in
          List.iter
            (fun (le, n) ->
              cum := !cum + n;
              if le <> infinity then
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket%s %d\n" name
                     (prom_labels_le labels le) !cum))
            buckets;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket%s %d\n" name
               (prom_labels_le labels infinity) count);
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %s\n" name (prom_labels labels)
               (float_str sum));
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" name (prom_labels labels) count);
          if count > 0 then begin
            let qname = name ^ "_quantile" in
            header qname "gauge";
            List.iter
              (fun q ->
                Buffer.add_string b
                  (Printf.sprintf "%s%s %s\n" qname
                     (prom_labels (labels @ [ ("q", Printf.sprintf "%g" q) ]))
                     (float_str (quantile_of ~base buckets count q))))
              export_quantiles
          end)
    (snapshot ());
  Buffer.contents b
