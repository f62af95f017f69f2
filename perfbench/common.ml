(* Shared pieces of the benchmark: the serving corpus and its query
   templates, the server child process, /proc readings, the run stamp
   and the result printer. *)

open Legodb

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU seconds this process has used, every thread and domain
   included *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* placement                                                           *)
(* ------------------------------------------------------------------ *)

external allowed_cpus : unit -> int list = "perfbench_allowed_cpus"
external pin : int list -> unit = "perfbench_pin"

(* Where each process runs.  With two CPUs or more, the server child
   gets all but the last CPU this process may use, and the load
   generator the last, so neither competes with the other for a core.
   The calibration kernel below runs on the server's first CPU: the
   virtual machine this benchmark was tuned on ran its two CPUs at
   speeds up to 20% apart, each changing by the minute, so a kernel
   timed on the generator's CPU misjudged the server's.  The design
   workload runs on that CPU too. *)
let server_cpus, generator_cpus =
  match List.rev (allowed_cpus ()) with
  | last :: (_ :: _ as rest) -> (List.rev rest, [ last ])
  | cpus -> (cpus, cpus)

let kernel_cpus = [ List.hd server_cpus ]

(* ------------------------------------------------------------------ *)
(* calibration                                                         *)
(* ------------------------------------------------------------------ *)

(* The shared virtual machine this benchmark was tuned on ran the same
   code up to 1.7x slower for minutes at a time, in CPU time as well as
   wall time, with almost no stolen time to show for it: the host's
   other tenants slowed the cores themselves.  So each run also times a
   fixed kernel (no LegoDB code) next to its measured steps, and
   reports its CPU figures in reference seconds: measured seconds
   scaled by [kernel_ref_s] over the median time of the kernel runs
   made next to them, to the power [kernel_exponent].  A change to
   LegoDB moves the measured work and not the kernel.

   The kernel is read-modify-write at pseudo-random offsets of a
   buffer larger than a core's private caches, plus the arithmetic that
   picks them.  It allocates nothing, so the collector, whose work grows
   with the heap of whichever process runs the kernel, takes no part in
   its time. *)
let kernel_ref_s = 0.05

(* The kernel, all cache misses, slowed more than LegoDB's work as the
   host got busier.  Over two 10-seed sets of the three workloads,
   taken in a calmer and a busier hour, scaling by the kernel's ratio
   to this power gave the smallest worst spread of the CPU figures
   (0.11, against 0.18 both at 1 and unscaled). *)
let kernel_exponent = 0.75

let kernel_buf = Bytes.make (1 lsl 22) '\000'

let kernel () =
  let mask = Bytes.length kernel_buf - 1 in
  let x = ref 0x2545f491 in
  for _ = 1 to 2_000_000 do
    (* xorshift, kept to 62 bits *)
    x := !x lxor ((!x lsl 13) land 0x3fffffffffffffff);
    x := !x lxor (!x lsr 7);
    x := !x lxor ((!x lsl 17) land 0x3fffffffffffffff);
    let j = !x land mask in
    Bytes.unsafe_set kernel_buf j
      (Char.unsafe_chr ((Char.code (Bytes.unsafe_get kernel_buf j) + 1) land 255))
  done

(* the CPU seconds of the kernel runs made next to one measurement *)
type calib = { mutable times : float list }

let calib () = { times = [] }

(* time the kernel once, in this process, on [kernel_cpus] *)
let calibrate c =
  let saved = allowed_cpus () in
  pin kernel_cpus;
  let c0 = self_cpu_s () in
  kernel ();
  c.times <- (self_cpu_s () -. c0) :: c.times;
  pin saved

let kernel_s c = Stat.median (Array.of_list c.times)

(* CPU seconds measured next to [c]'s kernel runs, in reference
   seconds *)
let to_ref c x = x *. ((kernel_ref_s /. kernel_s c) ** kernel_exponent)

let nproc = Par.default_jobs ()

(* the run's scratch directory, inside the checkout the benchmark runs
   from *)
let work_dir = ".perfbench"

let fail fmt = Printf.ksprintf failwith fmt

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ------------------------------------------------------------------ *)
(* corpus                                                              *)
(* ------------------------------------------------------------------ *)

(* The serving corpus: synthetic IMDB at scale 0.12 (~112.8k rows),
   fixed seed, all-inlined, with an equality index on every column the
   query templates compare to a constant.  The workload seed never
   reaches it: it only shapes the request streams. *)
let corpus_scale = 0.12
let corpus_seed = 7

(* plans compiled for an in-memory store: cheap seeks, so selective
   requests compile to index probes *)
let mem_params =
  { Cost.default_params with Cost.seek_weight = 0.1; read_weight = 0.1 }

let doc_root = "document(\"imdb\")/imdb"

(* lookup-zipf's four point-lookup templates *)
let t_year y =
  Printf.sprintf "FOR $v IN %s/show WHERE $v/year = %s RETURN $v/title, $v/year, $v/type"
    doc_root y

let t_name n =
  Printf.sprintf "FOR $a IN %s/actor WHERE $a/name = \"%s\" RETURN $a/name" doc_root n

let t_join n =
  Printf.sprintf
    "FOR $i IN %s $a in $i/actor, $m1 in $a/played WHERE $a/name = \"%s\" RETURN \
     $a/name, $m1/title, $m1/year"
    doc_root n

let t_title s =
  Printf.sprintf "FOR $v IN %s/show WHERE $v/title = \"%s\" RETURN $v/title, $v/year"
    doc_root s

(* publish-rw's subtree-publishing templates: Q18/Q19/Q20 and shows by
   year *)
let t_actor_tree n =
  Printf.sprintf "FOR $a IN %s/actor WHERE $a/name = \"%s\" RETURN $a" doc_root n

let t_show_tree s =
  Printf.sprintf "FOR $s IN %s/show WHERE $s/title = \"%s\" RETURN $s" doc_root s

let t_director_tree n =
  Printf.sprintf "FOR $d IN %s/director WHERE $d/name = \"%s\" RETURN $d" doc_root n

let t_year_tree y =
  Printf.sprintf "FOR $s IN %s/show WHERE $s/year = %s RETURN $s" doc_root y

type corpus = {
  doc : Xml.t;
  schema : Xschema.t;  (** the all-inlined p-schema *)
  mapping : Mapping.t;
  t_gen : float;
  t_collect : float;  (** Collector.collect + Annotate.schema *)
}

let build_corpus () =
  let doc, t_gen =
    time (fun () ->
        Imdb.Gen.generate
          { (Imdb.Gen.scaled corpus_scale) with Imdb.Gen.seed = corpus_seed })
  in
  let schema, t_collect =
    time (fun () ->
        Init.all_inlined
          (Annotate.schema (Collector.collect doc) Imdb.Schema.schema))
  in
  let base =
    match Mapping.of_pschema schema with
    | Ok m -> m
    | Error es -> fail "corpus mapping: %s" (String.concat "; " es)
  in
  let reps =
    List.map
      (fun text -> Xq_translate.translate base (Xq_parse.parse ~name:"rep" text))
      [
        t_year "1900"; t_name "x"; t_join "x"; t_title "x"; t_actor_tree "x";
        t_show_tree "x"; t_director_tree "x"; t_year_tree "1900";
      ]
  in
  let mapping =
    {
      base with
      Mapping.catalog =
        Rschema.add_indexes base.Mapping.catalog
          (Xq_translate.equality_columns reps);
    }
  in
  { doc; schema; mapping; t_gen; t_collect }

let shred c = Shred.shred c.mapping c.doc

(* distinct values at a document path, in document order *)
let pool doc path =
  let seen = Hashtbl.create 1024 in
  let vs =
    List.filter
      (fun v ->
        if Hashtbl.mem seen v then false
        else begin
          Hashtbl.replace seen v ();
          true
        end)
      (Xq_eval.path_values doc path)
  in
  if vs = [] then fail "empty constant pool at %s" (String.concat "/" path);
  Array.of_list vs

type pools = {
  years : string array;
  names : string array;
  titles : string array;
  directors : string array;
}

let pools doc =
  {
    years = pool doc [ "show"; "year" ];
    names = pool doc [ "actor"; "name" ];
    titles = pool doc [ "show"; "title" ];
    directors = pool doc [ "director"; "name" ];
  }

(* ------------------------------------------------------------------ *)
(* the one-shot reference path                                         *)
(* ------------------------------------------------------------------ *)

(* How the one-shot path reports its layers: [run name f] runs [f],
   the work of layer [name].  The correctness check runs the layers
   bare; the traced run wraps each in a span. *)
type layers = { run : 'a. string -> (unit -> 'a) -> 'a }

let bare = { run = (fun _ f -> f ()) }

(* translate -> optimize every block -> execute each, against a frozen
   snapshot: each block's rows and the executor's measures.  Every
   sampled network answer must equal the blocks' rows concatenated,
   bit for bit. *)
let one_shot ?(layers = bare) mapping snap ast =
  let cat = Storage.catalog snap in
  let lq = layers.run "xq_translate" (fun () -> Xq_translate.translate mapping ast) in
  let plans =
    layers.run "optimizer" (fun () ->
        List.map
          (fun (b : Logical.block) ->
            ((Optimizer.optimize_block ~params:mem_params cat b).Optimizer.plan, b.Logical.out))
          lq.Logical.blocks)
  in
  layers.run "executor" (fun () ->
      List.map (fun (plan, out) -> Executor.run_block snap plan out) plans)

(* Check sampled (text, rows) answers: bit-identical to the one-shot
   path on [snap], and a main block with as many rows as the tree
   evaluator has satisfying bindings over [docs] (the corpus plus any
   appended documents).  Returns the failures' descriptions. *)
let check_answers mapping snap docs samples =
  List.filter_map
    (fun (text, rows) ->
      let ast = Xq_parse.parse ~name:"check" text in
      let blocks = List.map fst (one_shot mapping snap ast) in
      let main = match blocks with b :: _ -> List.length b | [] -> 0 in
      let count =
        List.fold_left (fun a d -> a + Xq_eval.count_bindings d ast) 0 docs
      in
      if rows <> List.concat blocks then
        Some ("answer differs from the one-shot path: " ^ text)
      else if main <> count then
        Some
          (Printf.sprintf "main block has %d rows, tree evaluator binds %d: %s" main
             count text)
      else None)
    samples

(* ------------------------------------------------------------------ *)
(* processes                                                           *)
(* ------------------------------------------------------------------ *)

let children = ref []

let kill_child pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let kill_children () = List.iter kill_child !children

let () =
  at_exit kill_children;
  let on_signal _ =
    kill_children ();
    Unix._exit 130
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)

(* Fork a child that runs [body] on [server_cpus], which must report
   readiness by writing one line to the given channel; returns the pid
   and that line.  The child exits if the benchmark process goes away, so a
   killed benchmark never leaves a server behind. *)
let spawn body =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  let parent = Unix.getpid () in
  match Unix.fork () with
  | 0 -> (
      pin server_cpus;
      Unix.close r;
      children := [];
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default;
      ignore
        (Thread.create
           (fun () ->
             while true do
               Thread.delay 0.5;
               if Unix.getppid () <> parent then Unix._exit 3
             done)
           ());
      let oc = Unix.out_channel_of_descr w in
      match body oc with
      | () -> Unix._exit 0
      | exception e ->
          prerr_endline ("perfbench child: " ^ Printexc.to_string e);
          Unix._exit 2)
  | pid ->
      children := pid :: !children;
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let ready, _, _ =
        try Unix.select [ r ] [] [] 600. with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
      in
      let line = if ready = [] then None else In_channel.input_line ic in
      close_in ic;
      match line with
      | Some l -> (pid, l)
      | None ->
          kill_child pid;
          fail "child process %d never became ready" pid

(* The server child: build the corpus, stand Serve up over it (durable
   when [data_dir] is given) and run the TCP front door on an ephemeral
   port.  Its readiness line is the port and the CPU seconds the child
   spent getting there, all its threads included.  Returns the
   pid, the port and that set-up CPU time. *)
let spawn_server ?data_dir () =
  let jobs = max 1 (nproc - 1) in
  let pid, line =
    spawn (fun oc ->
        let c = build_corpus () in
        let srv = Serve.create ~jobs ~params:mem_params ?data_dir c.mapping (shred c) in
        ignore
          (Net.serve
             ~on_listen:(fun port ->
               Printf.fprintf oc "%d %.6f\n%!" port (self_cpu_s ());
               close_out oc)
             ~port:0 srv))
  in
  Scanf.sscanf line "%d %f" (fun port cpu -> (pid, port, cpu))

(* The generator's own collector: a larger minor heap and a lazier
   major GC, so its pauses stay out of the latencies it measures.  Set
   only after the server children are forked: they keep the defaults. *)
let generator_gc () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20; space_overhead = 200 }

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* CPU seconds a child process's threads have run so far, from the
   scheduler's nanosecond on-CPU time in /proc/<pid>/task/*/schedstat.
   Time the host stole from this machine's CPUs is not in it, so it
   holds still where wall time swings with the host's other tenants.
   Only differences are used, over spans in which no thread ends. *)
let proc_cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match
        In_channel.with_open_text (Filename.concat (Filename.concat dir tid) "schedstat")
          In_channel.input_all
      with
      | s -> acc +. (float_of_string (List.hd (String.split_on_char ' ' s)) /. 1e9)
      | exception Sys_error _ -> acc)
    0. (Sys.readdir dir)

(* peak resident set of a process, MiB *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> fail "no VmHWM in %s" path
        | Some l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.)
            else go ()
      in
      go ())

(* ------------------------------------------------------------------ *)
(* output                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else fail "non-finite measurement %f" v

let json_string s = Printf.sprintf "\"%s\"" (String.escaped s)

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
             (json_float x.value) (json_string x.unit_))
         ms)
  ^ "}"

let git_rev () =
  if not (Sys.file_exists ".git") then "none"
  else
    match
      let ic =
        (* only this checkout's own repository, never an enclosing one *)
        Unix.open_process_args_in "git"
          [| "git"; "--git-dir=.git"; "rev-parse"; "--short"; "HEAD" |]
      in
      let l = In_channel.input_line ic in
      (l, Unix.close_process_in ic)
    with
    | Some rev, Unix.WEXITED 0 -> rev
    | _ | (exception _) -> "none"

(* (steal, total) jiffies over all CPUs: steal is time the host ran
   something else while this machine's CPUs wanted to run *)
let cpu_jiffies () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some l -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' l) with
      | "cpu" :: fields ->
          let v = List.map int_of_string fields in
          (List.nth v 7, List.fold_left ( + ) 0 v)
      | _ -> (0, 0))
  | None | (exception Sys_error _) -> (0, 0)

let jiffies_at_start = cpu_jiffies ()

(* the share of CPU time the host stole since the run began: a run with
   a large share measured the host's other tenants as much as LegoDB *)
let steal_frac () =
  let s0, t0 = jiffies_at_start and s1, t1 = cpu_jiffies () in
  if t1 = t0 then 0. else float_of_int (s1 - s0) /. float_of_int (t1 - t0)

type stamp = (string * string) list
(** key -> already-encoded JSON value *)

(* [calibs]: each calibration's stamp key and its kernel runs *)
let base_stamp ~workload ~seed ~corpus_rows ~calibs : stamp =
  [
    ("workload", json_string workload);
    ("seed", string_of_int seed);
    ("nproc", string_of_int nproc);
    ("ocaml", json_string Sys.ocaml_version);
    ("git_rev", json_string (git_rev ()));
    ("corpus_rows", string_of_int corpus_rows);
    ("cpu_steal_frac", json_float (steal_frac ()));
    ("server_cpus", "[" ^ String.concat ", " (List.map string_of_int server_cpus) ^ "]");
    ("generator_cpus", "[" ^ String.concat ", " (List.map string_of_int generator_cpus) ^ "]");
  ]
  @ List.map
      (fun (key, c) ->
        ( key,
          Printf.sprintf "{\"median_s\": %s, \"runs\": %d}" (json_float (kernel_s c))
            (List.length c.times) ))
      calibs

let print_stamp (s : stamp) =
  print_endline
    ("{\"stamp\": {"
    ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) s)
    ^ "}}")

(* every measurement by name, end-to-end and diagnostic alike *)
let print_named ms = print_endline ("{\"named\": " ^ metrics_json ms ^ "}")

let print_result ~correct ~attempted ~failed ms =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    correct attempted failed (metrics_json ms)
