(* Unit tests for the benchmark's own arithmetic. *)

let zipf_same_draws () =
  let z = Stat.zipf ~s:1.0 100 in
  let draws seed =
    let rng = Random.State.make [| seed |] in
    List.init 50 (fun _ -> Stat.zipf_draw z rng)
  in
  Alcotest.(check (list int)) "same seed, same draws" (draws 7) (draws 7);
  Alcotest.(check bool) "another seed differs" true (draws 7 <> draws 8)

let zipf_shape () =
  (* with s = 1, rank k's frequency is ~ 1/k of rank 1's *)
  let n = 50 and draws = 200_000 in
  let z = Stat.zipf ~s:1.0 n in
  let rng = Random.State.make [| 1 |] in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let k = Stat.zipf_draw z rng in
    counts.(k) <- counts.(k) + 1
  done;
  let h = Array.fold_left (fun a k -> a +. (1. /. float_of_int k)) 0.
      (Array.init n (fun i -> i + 1)) in
  List.iter
    (fun k ->
      let expected = float_of_int draws /. (float_of_int k *. h) in
      let got = float_of_int counts.(k - 1) in
      if Float.abs (got -. expected) > 0.05 *. expected then
        Alcotest.failf "rank %d: %.0f draws, expected ~%.0f" k got expected)
    [ 1; 2; 3; 5; 10 ];
  Alcotest.(check bool) "ranks are monotone in frequency" true
    (counts.(0) > counts.(1) && counts.(1) > counts.(3) && counts.(3) > counts.(20));
  let z1 = Stat.zipf ~s:1.0 1 in
  Alcotest.(check int) "one-rank support" 0 (Stat.zipf_draw z1 rng)

let percentiles () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.)) "median of 1..100" 50. (Stat.median xs);
  Alcotest.(check (float 0.)) "p90 of 1..100" 90.
    (Stat.nearest_rank (Array.init 100 (fun i -> float_of_int (i + 1))) 90.);
  Alcotest.(check (option (float 0.))) "p90 has exactly ten beyond" (Some 90.)
    (Stat.percentile xs 90.);
  Alcotest.(check (option (float 0.))) "p99 of 100 has only one beyond" None
    (Stat.percentile xs 99.);
  let big = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option (float 0.))) "p99 of 1000" (Some 990.)
    (Stat.percentile big 99.);
  Alcotest.(check (option (float 0.))) "p99 of 999 lacks support" None
    (Stat.percentile (Array.sub big 0 999) 99.);
  Alcotest.(check int) "beyond" 10 (Stat.beyond 1000 99.);
  Alcotest.(check (float 0.)) "median of one" 3. (Stat.median [| 3. |]);
  Alcotest.(check (float 0.)) "median of two is the lower" 1.
    (Stat.median [| 2.; 1. |])

let self_time () =
  let sp id parent t0 t1 =
    { Stat.id; name = string_of_int id; parent; req = 0; t0; t1 }
  in
  let spans =
    [|
      sp 0 (-1) 0. 10.;
      (* two overlapping children cover [1,5] *)
      sp 1 0 1. 4.;
      sp 2 0 3. 5.;
      (* a child running past its parent is clipped at 10 *)
      sp 3 0 8. 12.;
      (* a grandchild does not count against the root *)
      sp 4 1 1.5 2.;
    |]
  in
  let st = Stat.self_times spans in
  let get id = List.assoc id st in
  Alcotest.(check (float 1e-9)) "root" 4. (get 0);
  Alcotest.(check (float 1e-9)) "child with grandchild" 2.5 (get 1);
  Alcotest.(check (float 1e-9)) "leaf" 2. (get 2);
  Alcotest.(check (float 1e-9)) "leaf past its parent" 4. (get 3);
  Alcotest.(check (float 1e-9)) "grandchild" 0.5 (get 4);
  (* a properly nested tree: self times partition the root's span *)
  let nested = [| sp 0 (-1) 0. 10.; sp 1 0 1. 3.; sp 2 0 4. 6.; sp 3 2 4.5 5. |] in
  Alcotest.(check (float 1e-9)) "nested self times sum to the root" 10.
    (List.fold_left (fun a (_, t) -> a +. t) 0. (Stat.self_times nested))

let () =
  Alcotest.run "perfbench"
    [
      ( "zipf",
        [
          Alcotest.test_case "same draws for a seed" `Quick zipf_same_draws;
          Alcotest.test_case "rank-frequency shape" `Quick zipf_shape;
        ] );
      ( "percentile",
        [ Alcotest.test_case "nearest rank, ten beyond" `Quick percentiles ] );
      ("span", [ Alcotest.test_case "self time" `Quick self_time ]);
    ]
