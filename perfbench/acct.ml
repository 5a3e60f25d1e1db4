(* Operation accounting behind [attempted], [failed] and [fail_frac].

   Every operation the benchmark issues is attempted once; it fails when it
   raises, is shed or rejected, times out, hits a transport error, or
   answers differently from the oracle. A request still outstanding when
   the watchdog fires also fails: [abandon] adds those, so a wedged run
   reports every request it never saw answered. Counters are atomic: the
   open-loop generator's two threads and the watchdog all touch them. *)

type t = {
  attempted : int Atomic.t;
  failed : int Atomic.t;
  mismatches : int Atomic.t;  (** oracle disagreements, a subset of [failed] *)
  abandoned : int Atomic.t;  (** outstanding at the watchdog, a subset of [failed] *)
}

let create () =
  { attempted = Atomic.make 0; failed = Atomic.make 0;
    mismatches = Atomic.make 0; abandoned = Atomic.make 0 }

let attempt t = Atomic.incr t.attempted
let fail t = Atomic.incr t.failed

let mismatch t =
  Atomic.incr t.mismatches;
  fail t

(* [outstanding] requests were attempted (already counted) and will never
   be answered. *)
let abandon t ~outstanding =
  ignore (Atomic.fetch_and_add t.abandoned outstanding);
  ignore (Atomic.fetch_and_add t.failed outstanding)

let attempted t = Atomic.get t.attempted
let failed t = Atomic.get t.failed
let mismatches t = Atomic.get t.mismatches

let fail_frac t =
  let a = attempted t in
  if a = 0 then 0.0 else float_of_int (failed t) /. float_of_int a

(* A run is correct when no answer disagreed with the oracle and nothing
   was abandoned to the watchdog. *)
let correct t = Atomic.get t.mismatches = 0 && Atomic.get t.abandoned = 0
