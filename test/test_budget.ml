(* Anytime search: budgets, cancellation, and fault accounting.
   The contracts under test: a budgeted run returns exactly the
   best-so-far prefix of the unbudgeted trace, bit-identically for
   every [jobs] value; and a search with injected faults selects
   exactly what a search over the surviving candidates would, with a
   structured failure record per skipped candidate. *)

open Legodb
open Test_util

let prop name ?(count = 50) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let all_queries = [| 8; 9; 11; 12; 13; 15; 16; 17 |]

let prefix n l = List.filteri (fun i _ -> i < n) l

(* a random sub-workload, evaluation budget, and jobs value: the
   budgeted greedy must be an exact prefix of the unbudgeted trace and
   bit-identical whatever the jobs value *)
let gen_budgeted =
  QCheck2.Gen.(
    triple
      (list_size (int_range 1 2) (int_range 0 (Array.length all_queries - 1)))
      (int_range 1 60)
      (oneofl [ 1; 2; 4 ]))

let run_prefix (picks, max_evals, jobs) =
  let workload =
    List.sort_uniq compare picks
    |> List.map (fun i -> Imdb.Queries.q all_queries.(i))
    |> Workload.of_queries
  in
  let schema = Lazy.force annotated_imdb in
  let full = Search.greedy_si ~max_iterations:3 ~workload schema in
  let budgeted ~jobs =
    Search.greedy_si ~max_iterations:3 ~jobs
      ~budget:(Budget.create ~max_evaluations:max_evals ())
      ~workload schema
  in
  let b1 = budgeted ~jobs:1 in
  let bj = budgeted ~jobs in
  let n = List.length b1.Search.trace in
  Test_par.same_trace b1.Search.trace (prefix n full.Search.trace)
  && Test_par.same_trace b1.Search.trace bj.Search.trace
  && b1.Search.stopped = bj.Search.stopped
  && Float.equal b1.Search.cost bj.Search.cost
  && String.equal
       (Xschema.to_string b1.Search.schema)
       (Xschema.to_string bj.Search.schema)
  (* a run cut short must blame the evaluation budget *)
  && (n = List.length full.Search.trace || b1.Search.stopped = `Cost_budget)

let suite =
  [
    case "monotonic clock never goes backwards and advances" (fun () ->
        let prev = ref (Clock.now ()) in
        for _ = 1 to 100_000 do
          let t = Clock.now () in
          if t < !prev then Alcotest.failf "clock went back: %h < %h" t !prev;
          prev := t
        done;
        let t0 = Clock.now () in
        Unix.sleepf 0.02;
        let dt = Clock.now () -. t0 in
        (* a sleep never returns early; the upper bound only catches a
           unit error (nanoseconds or milliseconds read as seconds) *)
        check_bool "advances across a 20 ms sleep" true
          (dt >= 0.019 && dt < 5.));
    case "budget primitives" (fun () ->
        let b = Budget.create ~max_evaluations:2 () in
        Budget.tick b;
        Budget.tick b;
        (match Budget.tick b with
        | () -> Alcotest.fail "expected Exhausted"
        | exception Budget.Exhausted `Cost_budget -> ());
        (* the failed tick drew its ticket before raising *)
        check_int "tickets drawn" 3 (Budget.evaluations b);
        check_bool "barrier reports the spent budget" true
          (Budget.stop_at_iteration b 0 = Some `Cost_budget);
        let i = Budget.create () in
        Budget.poll i;
        check_bool "fresh budget passes the barrier" true
          (Budget.stop_at_iteration i 5 = None);
        Budget.interrupt i;
        check_bool "interrupt is visible" true (Budget.interrupted i);
        (match Budget.poll i with
        | () -> Alcotest.fail "expected Exhausted"
        | exception Budget.Exhausted `Interrupted -> ());
        check_bool "stopped names are stable" true
          (List.map Search.stopped_string
             [ `Converged; `Deadline; `Iterations; `Cost_budget; `Interrupted ]
          = [
              "converged"; "deadline"; "iterations"; "cost_budget"; "interrupted";
            ]));
    case "unbudgeted searches report convergence" (fun () ->
        let workload = Imdb.Workloads.lookup in
        let r = Search.greedy_si ~workload (Lazy.force annotated_imdb) in
        check_string "greedy" "converged" (Search.stopped_string r.Search.stopped);
        check_bool "no failures on imdb" true (r.Search.failures = []);
        List.iter
          (fun (e : Search.trace_entry) ->
            check_bool "clean trace entries" true (e.Search.failures = []))
          r.Search.trace);
    case "zero deadline returns the initial configuration" (fun () ->
        let workload = Imdb.Workloads.lookup in
        let schema = Lazy.force annotated_imdb in
        let r =
          Search.greedy_si ~budget:(Budget.create ~wall_ms:0. ()) ~workload
            schema
        in
        check_string "reason" "deadline" (Search.stopped_string r.Search.stopped);
        check_int "only the initial entry" 1 (List.length r.Search.trace);
        check_string "initial schema"
          (Xschema.to_string (Init.all_inlined schema))
          (Xschema.to_string r.Search.schema);
        check_bool "cost is the initial entry's" true
          (Float.equal r.Search.cost (List.hd r.Search.trace).Search.cost));
    case "a pre-tripped interrupt stops both strategies" (fun () ->
        let workload = Imdb.Workloads.lookup in
        let schema = Lazy.force annotated_imdb in
        let tripped () =
          let b = Budget.create () in
          Budget.interrupt b;
          b
        in
        let g = Search.greedy_si ~budget:(tripped ()) ~workload schema in
        check_string "greedy reason" "interrupted"
          (Search.stopped_string g.Search.stopped);
        check_int "greedy trace" 1 (List.length g.Search.trace);
        let b =
          Search.beam ~width:2 ~kinds:[ Space.K_outline ] ~budget:(tripped ())
            ~workload (Init.all_inlined schema)
        in
        check_string "beam reason" "interrupted"
          (Search.stopped_string b.Search.stopped);
        check_int "beam trace" 1 (List.length b.Search.trace));
    case "iteration caps stop with the exact prefix" (fun () ->
        let workload = Imdb.Workloads.lookup in
        let schema = Lazy.force annotated_imdb in
        let full = Search.greedy_si ~workload schema in
        List.iter
          (fun k ->
            let r =
              Search.greedy_si
                ~budget:(Budget.create ~max_iterations:k ())
                ~workload schema
            in
            check_string "reason" "iterations"
              (Search.stopped_string r.Search.stopped);
            check_int "completed iterations" (k + 1) (List.length r.Search.trace);
            check_bool "prefix" true
              (Test_par.same_trace r.Search.trace (prefix (k + 1) full.Search.trace)))
          [ 1; 2 ]);
    case "budget tickets equal engine evaluations minus the initial" (fun () ->
        let workload = Imdb.Workloads.lookup in
        let b = Budget.create () in
        let r = Search.greedy_si ~budget:b ~workload (Lazy.force annotated_imdb) in
        check_int "tickets"
          (r.Search.engine.Cost_engine.evaluations - 1)
          (Budget.evaluations b));
    case "budgeted beam returns a prefix with the reason" (fun () ->
        let workload = Imdb.Workloads.lookup in
        let start = Init.all_inlined (Lazy.force annotated_imdb) in
        let run ?budget () =
          Search.beam ~width:3 ~patience:1 ~max_iterations:3
            ~kinds:[ Space.K_outline ] ?budget ~workload start
        in
        let full = run () in
        let r = run ~budget:(Budget.create ~max_iterations:1 ()) () in
        check_string "reason" "iterations" (Search.stopped_string r.Search.stopped);
        let n = List.length r.Search.trace in
        check_bool "prefix" true
          (Test_par.same_trace r.Search.trace (prefix n full.Search.trace));
        let z = run ~budget:(Budget.create ~wall_ms:0. ()) () in
        check_string "deadline reason" "deadline"
          (Search.stopped_string z.Search.stopped);
        check_int "deadline trace" 1 (List.length z.Search.trace));
    case "injected faults equal filtering the candidates out" (fun () ->
        let workload = Imdb.Workloads.lookup in
        let schema = Init.all_inlined (Lazy.force annotated_imdb) in
        let init_s = Xschema.to_string schema in
        let inject s =
          (not (String.equal s init_s)) && Hashtbl.hash s mod 3 = 0
        in
        let kinds = [ Space.K_outline ] in
        let max_iterations = 3 in
        (* reference: a hand-rolled greedy over the surviving candidates
           only, costed by a fault-free engine *)
        let eng = Cost_engine.create ~workload () in
        let rec go it s c =
          if it >= max_iterations then (s, c)
          else
            let survivors =
              List.filter
                (fun (_, s') -> not (inject (Xschema.to_string s')))
                (Space.neighbors ~kinds s)
            in
            let best =
              List.fold_left
                (fun best (_, s') ->
                  match Cost_engine.cost_opt eng s' with
                  | None -> best
                  | Some c' -> (
                      match best with
                      | Some (_, bc) when bc <= c' -> best
                      | _ -> Some (s', c')))
                None survivors
            in
            match best with
            | Some (s', c') when c' < c -> go (it + 1) s' c'
            | _ -> (s, c)
        in
        let ref_schema, ref_cost = go 0 schema (Cost_engine.cost eng schema) in
        let run ~jobs =
          Search.greedy ~kinds ~max_iterations ~jobs
            ~engine:(Cost_engine.create ~workload ~inject ())
            ~workload schema
        in
        let r = run ~jobs:1 in
        check_string "same schema as the filtered search"
          (Xschema.to_string ref_schema)
          (Xschema.to_string r.Search.schema);
        check_bool "same cost" true (Float.equal ref_cost r.Search.cost);
        check_bool "failures recorded" true (r.Search.failures <> []);
        List.iter
          (fun (f : Search.failure) ->
            check_string "stage" "inject" f.Search.f_stage;
            check_string "class" "Injected" f.Search.f_class;
            check_bool "iteration set" true (f.Search.f_iteration >= 1))
          r.Search.failures;
        check_int "snapshot counts them too"
          (List.length r.Search.failures)
          r.Search.engine.Cost_engine.faults;
        (* the injection hook is a pure function of the configuration,
           so the run — failure records included — is jobs-invariant *)
        let fkey (f : Search.failure) =
          ( f.Search.f_iteration,
            Format.asprintf "%a" Space.pp_step f.Search.f_step,
            f.Search.f_stage )
        in
        let r4 = run ~jobs:4 in
        Test_par.check_bit_identical "inject" r r4;
        check_bool "same failure records" true
          (List.map fkey r.Search.failures = List.map fkey r4.Search.failures));
    prop "budgeted greedy is an exact prefix, identical across jobs" ~count:6
      gen_budgeted run_prefix;
  ]
