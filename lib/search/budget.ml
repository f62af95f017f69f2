(* Shared mutable budget state.  Everything is an [Atomic] or
   immutable, so parallel chunks (par_domains.ml) and signal handlers
   can read/trip it without locks; see budget.mli for the determinism
   argument behind the ticket counter. *)

type reason = [ `Deadline | `Iterations | `Cost_budget | `Interrupted ]

exception Exhausted of reason

type t = {
  deadline : float option;  (* absolute, on the monotonic Clock *)
  max_iterations : int option;
  max_evaluations : int option;
  evals : int Atomic.t;  (* tickets drawn *)
  intr : bool Atomic.t;
}

let create ?wall_ms ?max_iterations ?max_evaluations () =
  {
    deadline =
      Option.map (fun ms -> Legodb_clock.Clock.now () +. (ms /. 1000.)) wall_ms;
    max_iterations;
    max_evaluations;
    evals = Atomic.make 0;
    intr = Atomic.make false;
  }

let unlimited () = create ()

(* resume accounting: pre-draw the tickets a previous process spent so
   a cumulative evaluation budget trips at the same candidate *)
let charge t n = if n > 0 then ignore (Atomic.fetch_and_add t.evals n)
let interrupt t = Atomic.set t.intr true
let interrupted t = Atomic.get t.intr
let evaluations t = Atomic.get t.evals

(* [>=] so a zero-millisecond budget stops before the first iteration
   even on a coarse clock *)
let over_deadline t =
  match t.deadline with
  | Some d -> Legodb_clock.Clock.now () >= d
  | None -> false

let poll t =
  if Atomic.get t.intr then raise (Exhausted `Interrupted);
  if over_deadline t then raise (Exhausted `Deadline)

let tick t =
  poll t;
  let ticket = Atomic.fetch_and_add t.evals 1 in
  match t.max_evaluations with
  | Some m when ticket >= m -> raise (Exhausted `Cost_budget)
  | _ -> ()

let stop_at_iteration t iterations =
  if Atomic.get t.intr then Some `Interrupted
  else if over_deadline t then Some `Deadline
  else
    match t.max_iterations with
    | Some m when iterations >= m -> Some `Iterations
    | _ -> (
        (* a spent evaluation budget would abort the next iteration's
           first costing anyway; stopping here reports it cleanly *)
        match t.max_evaluations with
        | Some m when Atomic.get t.evals >= m -> Some `Cost_budget
        | _ -> None)
