(** A monotonic clock for deadlines and interval timers.

    [Unix.gettimeofday] follows the wall clock, which NTP or an
    operator can step backwards or forwards; a deadline or a timer
    read from it can then expire early, never, or measure a negative
    interval.  This clock never goes backwards. *)

val now : unit -> float
(** Seconds since an arbitrary fixed origin ([CLOCK_MONOTONIC]).  Only
    differences between two readings in one process mean anything. *)
