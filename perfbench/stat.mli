(** The benchmark's own arithmetic: the Zipf constant sampler, the
    nearest-rank percentile with the ten-samples-beyond rule, medians,
    and span self time.  Kept free of the system under test so the
    tests can pin it down on tiny inputs. *)

(** {1 Zipf sampling} *)

type zipf

val zipf : s:float -> int -> zipf
(** [zipf ~s n] — ranks [0 .. n-1], rank [k] drawn with probability
    proportional to [1 / (k+1)^s].  @raise Invalid_argument if [n < 1]. *)

val zipf_draw : zipf -> Random.State.t -> int
(** One rank.  A pure function of the generator state, so the same
    seed gives the same draws. *)

(** {1 Percentiles} *)

val nearest_rank : float array -> float -> float
(** [nearest_rank sorted p] — the nearest-rank [p]-th percentile
    ([0 < p <= 100]) of an ascending array: the value at rank
    [ceil (p/100 * n)].  @raise Invalid_argument on an empty array. *)

val beyond : int -> float -> int
(** [beyond n p] — how many of [n] samples lie strictly above the
    nearest-rank [p]-th percentile's rank. *)

val percentile : ?min_beyond:int -> float array -> float -> float option
(** The nearest-rank percentile of an {e unsorted} array, or [None]
    when fewer than [min_beyond] (default 10) samples lie beyond it —
    a tail percentile is only reported when it has support. *)

val median : float array -> float
(** Nearest-rank 50th percentile of an unsorted, non-empty array. *)

(** {1 Spans} *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  req : int;  (** request the span belongs to *)
  t0 : float;
  t1 : float;
}

val self_times : span array -> (int * float) list
(** Each span's self time: its duration minus the part of its interval
    that its children cover (overlapping children counted once,
    children clipped to the parent), keyed by span id, in input
    order. *)
