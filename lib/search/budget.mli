(** Effort budgets and cooperative cancellation for the search loop.

    The paper's greedy search (Algorithm 4.1) runs to convergence; a
    budget turns every strategy into an {e anytime} algorithm: the
    search returns the best configuration found within a wall-clock
    deadline, an iteration cap, or a cap on configurations costed —
    or when the caller (e.g. a [SIGINT] handler) interrupts it.

    A budget is a small piece of shared mutable state, safe to read
    and trip from any domain: the search polls it cooperatively —
    once per configuration inside {!Cost_engine} and once per
    iteration at the barrier — so in-flight parallel chunks notice an
    exhausted budget at their next candidate and stop promptly.

    {b Determinism.}  The evaluation cap is enforced with an atomic
    ticket counter: every costed configuration draws one ticket, and a
    costing whose ticket number is at or past the cap aborts the
    iteration.  Whether an iteration completes therefore depends only
    on (tickets drawn before it, its candidate count) — never on
    scheduling — so a search budgeted by iterations or evaluations
    returns the {e same} best-so-far prefix of the unbudgeted trace
    for every [~jobs] value.  Deadlines and interrupts stop at a
    nondeterministic iteration, but the result is still always a
    best-so-far prefix of the unbudgeted run. *)

type reason = [ `Deadline | `Iterations | `Cost_budget | `Interrupted ]
(** Why a budgeted search stopped short of convergence. *)

exception Exhausted of reason
(** Raised by {!poll} and {!tick} at a cooperative cancellation
    point; the search catches it at the iteration barrier, abandons
    the in-flight iteration, and returns the best-so-far result. *)

type t

val create :
  ?wall_ms:float -> ?max_iterations:int -> ?max_evaluations:int -> unit -> t
(** A budget; omitted limits are unlimited.  [wall_ms] arms an
    absolute deadline [wall_ms] milliseconds from the call, on the
    monotonic {!Legodb_clock.Clock}, so stepping the wall clock
    neither ends a search early nor extends it;
    [max_iterations] caps completed search iterations (beam levels);
    [max_evaluations] caps candidate configurations costed (the
    initial configuration is always costed and does not draw a
    ticket, so the search always has a result to return). *)

val unlimited : unit -> t
(** [create ()]: no limits; still interruptible. *)

val interrupt : t -> unit
(** Trip the budget from anywhere — a signal handler, another domain.
    Async-signal-safe (a single atomic store). *)

val interrupted : t -> bool

val evaluations : t -> int
(** Tickets drawn so far (candidate configurations costed). *)

val charge : t -> int -> unit
(** Pre-draw [n] tickets without costing anything.  {!Search.resume}
    charges a fresh budget with the snapshot's ticket count, so a
    cumulative [max_evaluations] across stop/resume cycles trips at
    exactly the same candidate as it would in one uninterrupted run. *)

val poll : t -> unit
(** Cooperative cancellation point without a ticket: raises
    {!Exhausted} on a tripped interrupt or a passed deadline. *)

val tick : t -> unit
(** {!poll}, then draw one evaluation ticket; raises [Exhausted
    `Cost_budget] when the ticket is at or past [max_evaluations]. *)

val stop_at_iteration : t -> int -> reason option
(** Barrier check before starting iteration [n + 1], where [n]
    iterations are complete: the reason the search must stop now, if
    any ([`Iterations] when [n] has reached [max_iterations],
    [`Cost_budget] when the evaluation budget is already spent, plus
    the {!poll} conditions). *)
