(* The repository benchmark's entry point:

     bench.exe --workload lookup-zipf|publish-rw|design --seed N
               --seconds S --trace 0|1

   With --trace 0 it times the workload and prints, as its last line,
   {"correct", "attempted", "failed", "metrics"} with the end-to-end
   metrics; with --trace 1 it makes the separate traced run and prints
   the per-layer metrics instead (see README.md).  Exit code 0 only
   when every correctness check passed. *)

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " lookup-zipf, publish-rw or design");
      ("--seed", Arg.Set_int seed, " workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let seconds = float_of_int !seconds and seed = !seed in
  let ok =
    match (!workload, !trace) with
    | "lookup-zipf", 0 -> Serving.lookup_zipf ~seed ~seconds
    | "publish-rw", 0 -> Serving.publish_rw ~seed ~seconds
    | "design", 0 -> Design.run ~seed ~seconds
    | ("lookup-zipf" | "publish-rw" | "design"), _ ->
        Traced.run ~workload:!workload ~seed ~seconds
    | w, _ ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  exit (if ok then 0 else 1)
