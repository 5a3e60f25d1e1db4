(* Sample statistics for the benchmark's timings.

   Quantiles are nearest-rank: the q-quantile of n sorted samples is the
   value at 1-based rank ceil(q * n). A tail is reported at the highest
   percentile that still leaves at least [min_beyond] (10) samples above
   it, capped at the requested one, so a short run reports p98 or p95
   instead of a p99 resting on one or two samples. *)

let min_beyond = 10

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* [s] sorted ascending, non-empty *)
let rank_value s q =
  let n = Array.length s in
  let r = int_of_float (Float.ceil (q *. float_of_int n -. 1e-9)) in
  s.(max 0 (min (n - 1) (r - 1)))

let quantile xs q =
  if Array.length xs = 0 then Float.nan else rank_value (sorted xs) q

(* The percentile actually reportable for a requested tail [q] over [n]
   samples: [q] itself when at least [min_beyond] samples lie beyond it,
   otherwise the highest percentile that still does. [None] when [n] is
   too small for any. *)
let tail_level ~n q =
  if n <= min_beyond then None
  else Some (Float.min q (float_of_int (n - min_beyond) /. float_of_int n))

type summary = {
  n : int;
  p50 : float;
  tail_q : float;  (** the percentile [tail] sits at; 1.0 = the maximum *)
  tail : float;
  mean : float;
}

let empty = { n = 0; p50 = 0.0; tail_q = 0.0; tail = 0.0; mean = 0.0 }

let summarize ?(q = 0.99) xs =
  let n = Array.length xs in
  if n = 0 then empty
  else begin
    let s = sorted xs in
    let tail_q, tail =
      match tail_level ~n q with
      | Some l -> (l, rank_value s l)
      | None -> (1.0, s.(n - 1))
    in
    { n; p50 = rank_value s 0.5; tail_q; tail;
      mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n }
  end

(* The typical time of one pass over a cyclic input, from [blocks.(b)],
   the times block [b] of the cycle took on each pass: the sum of the
   blocks' medians. A stall of the host lands in one pass of the blocks it
   overlaps, so it moves no median while it covers fewer than half of the
   passes; the work a block always does, garbage collection included,
   stays in. *)
let pass_time blocks =
  Array.fold_left (fun acc xs -> acc +. quantile xs 0.5) 0.0 blocks

(* The knee of a rate ladder. [passes] holds each rung's verdict, lowest
   rate first. The knee is the split with the fewest rungs on the wrong
   side of it (failing below, passing above), the higher split on ties, so
   one stray failure below the knee or one lucky pass above it does not
   move it. Returns the index of the highest rung below the split, which
   passes by construction, or [None] when the best split is below every
   rung. *)
let knee passes =
  let n = Array.length passes in
  let wrong = ref (Array.fold_left (fun c p -> if p then c + 1 else c) 0 passes) in
  let best = ref !wrong and best_k = ref 0 in
  for k = 1 to n do
    wrong := !wrong + (if passes.(k - 1) then -1 else 1);
    if !wrong <= !best then begin
      best := !wrong;
      best_k := k
    end
  done;
  if !best_k = 0 then None else Some (!best_k - 1)

(* A growable float buffer: samples are appended on the measured path, so
   it never copies per sample. *)
module Buf = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.a then begin
      let b = Array.make (2 * t.len) 0.0 in
      Array.blit t.a 0 b 0 t.len;
      t.a <- b
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.a 0 t.len
end
