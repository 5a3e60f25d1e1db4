(** Per-domain cells: the one accounting substrate under [Stats], the
    [Metrics] counters and histograms, and the [Trace] span rings.

    A cell set hands every domain that touches it a private value, made on
    the domain's first {!get} and registered under a mutex. The hot path
    mutates its own value with plain writes that no other domain touches —
    no atomics, no lock. Readers {!fold} over every registered value; the
    result is exact at quiescent points and may observe in-flight values
    while other domains are still writing. Values of terminated domains
    stay registered: their counts still matter. *)

type 'a t

val create : (unit -> 'a) -> 'a t
(** A cell set whose values are made by the given function. *)

val get : 'a t -> 'a
(** The calling domain's value, made and registered on first use. Never
    share it with another domain. *)

val fold : ('acc -> int -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Fold over every registered (domain id, value) pair in registration
    order. Call at quiescent points. *)
