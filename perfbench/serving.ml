(* The two serving workloads, run against the real TCP front door in a
   server child process.

   lookup-zipf: read-only point lookups, constants Zipf(1.0) over each
   template's whole document-sampled pool.  Untimed warm-up, then a
   closed-loop capacity phase (nproc connections, corked rounds of 16
   requests each) timed in fixed bursts, then an open-loop latency
   phase at a fixed rate.

   publish-rw: a durable server.  Open-loop reads over a small hot set
   of subtree-publishing queries; one connection sends ~1 KB documents
   at a fixed rate, with a Publish after every [per_publish] appends
   and a tail of appends left unpublished for the crash check. *)

open Legodb
open Common

(* ------------------------------------------------------------------ *)
(* request streams                                                     *)
(* ------------------------------------------------------------------ *)

(* Phase [phase] of seed [seed]'s lookup stream: the i-th text depends
   only on (seed, phase, i). *)
let lookup_stream pools ~seed ~phase =
  let rng = Random.State.make [| seed; phase |] in
  let z a = (a, Stat.zipf ~s:1.0 (Array.length a)) in
  let years = z pools.years and names = z pools.names and titles = z pools.titles in
  let draw (a, zf) = a.(Stat.zipf_draw zf rng) in
  fun () ->
    match Random.State.int rng 4 with
    | 0 -> t_year (draw years)
    | 1 -> t_name (draw names)
    | 2 -> t_join (draw names)
    | _ -> t_title (draw titles)

let hot_per_template = 16

(* publish-rw's hot set: [hot_per_template] distinct constants per
   template, drawn from the pools by the seed *)
let hot_set pools ~seed =
  let rng = Random.State.make [| seed; 3 |] in
  let pick a =
    let idx = Hashtbl.create 16 in
    while Hashtbl.length idx < min hot_per_template (Array.length a) do
      Hashtbl.replace idx (Random.State.int rng (Array.length a)) ()
    done;
    List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) idx [])
    |> List.map (fun i -> a.(i))
  in
  Array.of_list
    (List.map t_actor_tree (pick pools.names)
    @ List.map t_show_tree (pick pools.titles)
    @ List.map t_director_tree (pick pools.directors)
    @ List.map t_year_tree (pick pools.years))

(* the i-th appended document: a tiny IMDB instance (~1 KB of XML), a
   distinct generator seed per document *)
let append_doc ~seed i =
  Xml.to_string
    (Imdb.Gen.generate
       {
         Imdb.Gen.default with
         Imdb.Gen.seed = 1_000_000 + (seed * 10_000) + i;
         shows = 1;
         directors = 1;
         actors = 1;
       })

(* seeded correctness sample: about one op in [every], at most [cap] *)
let sampler ~seed ~every ~cap =
  let rng = Random.State.make [| seed; 99 |] in
  let kept = ref 0 in
  fun () ->
    if !kept < cap && Random.State.int rng every = 0 then begin
      incr kept;
      true
    end
    else false

let decode_rows payload =
  match Net.decode_response payload with
  | Net.Rows { rows; _ } -> rows
  | _ -> fail "sampled answer is not rows"

(* ------------------------------------------------------------------ *)
(* shared plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let setups = 4

(* Stand the server up [setups] times, each a fresh process doing the
   full set-up, and keep the last.  Returns its pid, port and data
   directory, and the medians of the set-up CPU seconds each child
   reported and of the wall times from fork to the listening port.  The
   calibration kernel runs three times before each set-up and three
   times after the last, into [cal]. *)
let stand_up ~cal ~durable ~name =
  let cpus = ref [] and walls = ref [] and last = ref None in
  let calibrate () = for _ = 1 to 3 do calibrate cal done in
  for i = 1 to setups do
    let data_dir =
      if durable then begin
        let d = Filename.concat work_dir (Printf.sprintf "%s-%d-%d" name (Unix.getpid ()) i) in
        rm_rf d;
        mkdir_p work_dir;
        Some d
      end
      else None
    in
    calibrate ();
    let (pid, port, cpu), t = time (fun () -> spawn_server ?data_dir ()) in
    cpus := cpu :: !cpus;
    walls := t :: !walls;
    (match !last with
    | Some (p, _, d) ->
        kill_child p;
        Option.iter rm_rf d
    | None -> ());
    last := Some (pid, port, data_dir)
  done;
  calibrate ();
  let med l = Stat.median (Array.of_list l) in
  match !last with
  | Some (pid, port, dir) -> (pid, port, dir, med !cpus, med !walls)
  | None -> assert false

let ms x = 1000. *. x

let lat_ms ops ~from =
  Array.of_list
    (List.filter_map
       (fun (o : Loadgen.op) ->
         if o.Loadgen.ok then Some (ms (o.Loadgen.recv -. from o)) else None)
       ops)

let pct name xs p =
  match Stat.percentile xs p with
  | Some v -> v
  | None -> fail "%s: %d samples cannot support a p%g" name (Array.length xs) p

let lag_ms ops = Array.of_list (List.map (fun (o : Loadgen.op) -> ms (o.Loadgen.sent -. o.Loadgen.due)) ops)

(* generator lateness above this p99 marks the run as one where the
   generator, not the server, set the schedule *)
let behind_ms = 1.0

type net_delta = {
  queries : int;  (** answered, replayed included *)
  dn : Net.net_stats;
  ds : Serve.stats;
}

let delta (s0, n0) (s1, n1) =
  let dn =
    {
      n1 with
      Net.ticks = n1.Net.ticks - n0.Net.ticks;
      batches = n1.Net.batches - n0.Net.batches;
      batched_queries = n1.Net.batched_queries - n0.Net.batched_queries;
      replayed = n1.Net.replayed - n0.Net.replayed;
      bytes_in = n1.Net.bytes_in - n0.Net.bytes_in;
      bytes_out = n1.Net.bytes_out - n0.Net.bytes_out;
      select_s = n1.Net.select_s -. n0.Net.select_s;
      work_s = n1.Net.work_s -. n0.Net.work_s;
    }
  in
  let ds =
    {
      s1 with
      Serve.served = s1.Serve.served - s0.Serve.served;
      cache_hits = s1.Serve.cache_hits - s0.Serve.cache_hits;
      cache_misses = s1.Serve.cache_misses - s0.Serve.cache_misses;
      wal_appends = s1.Serve.wal_appends - s0.Serve.wal_appends;
      wal_fsyncs = s1.Serve.wal_fsyncs - s0.Serve.wal_fsyncs;
      wal_groups = s1.Serve.wal_groups - s0.Serve.wal_groups;
    }
  in
  { queries = dn.Net.batched_queries + dn.Net.replayed; dn; ds }

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let replay_rate d = ratio d.dn.Net.replayed d.queries
let plan_hit_rate d = ratio d.ds.Serve.cache_hits (d.ds.Serve.cache_hits + d.ds.Serve.cache_misses)

let distinct_frac texts =
  let h = Hashtbl.create 4096 in
  List.iter (fun t -> Hashtbl.replace h t ()) texts;
  ratio (Hashtbl.length h) (List.length texts)

(* ------------------------------------------------------------------ *)
(* lookup-zipf                                                         *)
(* ------------------------------------------------------------------ *)

let depth = 16
let burst = 2000

(* capacity bursts per second of run: 96 bursts (192k answers) in a
   12 s run, about 4 s on a 2-vCPU machine at ~50k answers/s *)
let bursts_per_s = 8
let warmup_requests = 4000

(* the open-loop phase's offered rate, requests per second *)
let lookup_rate = 2000.

type lookup_phases = {
  burst_walls : float list;
  burst_cpus : float list;  (** server CPU seconds of each burst *)
  cap_done : int;  (** capacity-phase requests, all answered or failed *)
  cap_failed : int;
  cap_kept : Loadgen.op list;  (** the capacity phase's sampled ops *)
  cap_wall : float;  (** seconds spent in bursts *)
  texts : (string, unit) Hashtbl.t;  (** every distinct text sent *)
  open_ops : Loadgen.op list;
}

(* Warm-up, then a closed-loop capacity phase of [bursts] bursts of
   [burst] answers, then an open-loop phase of [open_s] at
   [lookup_rate].  Both phases are a fixed amount of work, so the
   server serves the same texts however fast the machine runs: its
   caches, CPU and memory see the same inputs. *)
let run_lookup_phases ~cal ~port ~server ~pools ~seed ~bursts ~open_s ~keep =
  let conns = Array.init nproc (fun _ -> Loadgen.connect port) in
  Fun.protect
    ~finally:(fun () -> Array.iter Loadgen.close conns)
    (fun () ->
      let reads ?(keep = fun () -> false) n next =
        Array.init n (fun _ -> Loadgen.op ~keep:(keep ()) Loadgen.Read (next ()))
      in
      let warm = lookup_stream pools ~seed ~phase:0 in
      ignore
        (Loadgen.rounds conns ~depth (reads warmup_requests warm) ~deadline:(now () +. 60.));
      let cap = lookup_stream pools ~seed ~phase:1 in
      (* only counts and the sampled ops outlive a burst, so the
         generator's heap stays small *)
      let walls = ref [] and cpus = ref [] and done_ = ref 0 and failed = ref 0 and kept = ref [] in
      let texts = Hashtbl.create 65536 in
      for i = 1 to bursts do
        let batch = reads ~keep burst cap in
        if i mod 2 = 0 then calibrate cal;
        let cpu0 = proc_cpu_s server in
        walls := Loadgen.rounds conns ~depth batch ~deadline:(now () +. 60.) :: !walls;
        cpus := (proc_cpu_s server -. cpu0) :: !cpus;
        Array.iter
          (fun (o : Loadgen.op) ->
            incr done_;
            Hashtbl.replace texts o.Loadgen.text ();
            if not o.Loadgen.ok then incr failed;
            if o.Loadgen.keep then kept := o :: !kept)
          batch
      done;
      let stream = lookup_stream pools ~seed ~phase:2 in
      let schedule =
        Array.init (int_of_float (lookup_rate *. open_s)) (fun i ->
            let o = Loadgen.op ~keep:(keep ()) Loadgen.Read (stream ()) in
            o.Loadgen.due <- float_of_int i /. lookup_rate;
            (conns.(i mod nproc), o))
      in
      Loadgen.open_loop conns schedule ~grace:30.;
      Array.iter (fun (_, o) -> Hashtbl.replace texts o.Loadgen.text ()) schedule;
      {
        burst_walls = !walls;
        burst_cpus = !cpus;
        cap_done = !done_;
        cap_failed = !failed;
        cap_kept = !kept;
        cap_wall = List.fold_left ( +. ) 0. !walls;
        texts;
        open_ops = Array.to_list (Array.map snd schedule);
      })

let failures ops = List.length (List.filter (fun o -> not o.Loadgen.ok) ops)

let sampled_answers ops =
  List.filter_map
    (fun (o : Loadgen.op) ->
      if o.Loadgen.keep && o.Loadgen.ok then Some (o.Loadgen.text, decode_rows o.Loadgen.payload)
      else None)
    ops

(* The request pools, from a corpus document that is dropped again: the
   generator runs the timed phases with a small heap, and builds its
   replica only after the server is gone. *)
let slim_pools () =
  let p =
    pools (Imdb.Gen.generate { (Imdb.Gen.scaled corpus_scale) with Imdb.Gen.seed = corpus_seed })
  in
  Gc.compact ();
  p

let lookup_zipf ~seed ~seconds =
  pin generator_cpus;
  let cal_setup = calib () and cal = calib () in
  let pid, port, _, setup_cpu_s, setup_wall_s =
    stand_up ~cal:cal_setup ~durable:false ~name:"lookup-zipf"
  in
  let pools = slim_pools () in
  generator_gc ();
  let keep = sampler ~seed ~every:40 ~cap:250 in
  let s0 = Loadgen.stats port in
  let ph =
    run_lookup_phases ~cal ~port ~server:pid ~pools ~seed ~bursts:(bursts_per_s * int_of_float seconds)
      ~open_s:(0.4 *. seconds) ~keep
  in
  let d = delta s0 (Loadgen.stats port) in
  let rss = vm_hwm_mb (string_of_int pid) in
  kill_child pid;
  (* the benchmark's replica of the server's state: the oracle *)
  let c = build_corpus () in
  let snap = Storage.freeze (shred c) in
  let open_ops = ph.open_ops in
  let attempted = ph.cap_done + List.length open_ops in
  let failed = ph.cap_failed + failures open_ops in
  let samples = sampled_answers (ph.cap_kept @ open_ops) in
  let errors = check_answers c.mapping snap [ c.doc ] samples in
  List.iter (log "lookup-zipf: %s") errors;
  let lat = lat_ms open_ops ~from:(fun o -> o.Loadgen.due) in
  let lag = lag_ms open_ops in
  let lag_p99 = pct "generator lag" lag 99. in
  let qps = float_of_int ph.cap_done /. ph.cap_wall in
  let burst_s = Stat.median (Array.of_list ph.burst_walls) in
  (* the server CPU seconds of a median burst *)
  let cpu_s = Stat.median (Array.of_list ph.burst_cpus) in
  let e2e =
    [
      m "setup_s" "s" (to_ref cal_setup setup_cpu_s);
      m "cpu_s" "s" (to_ref cal cpu_s);
      m "rss_mb" "MiB" rss;
    ]
  in
  print_named
    [
      m "setup_host_s" "s" setup_cpu_s;
      m "setup_wall_s" "s" setup_wall_s;
      m "cpu_host_s" "s" cpu_s;
      m "query_qps" "answers/s" qps;
      m "burst_s" "s" burst_s;
      m "query_p50_ms" "ms" (pct "latency" lat 50.);
      m "query_p95_ms" "ms" (pct "latency" lat 95.);
      m "query_p99_ms" "ms" (pct "latency" lat 99.);
      m "fail_frac" "ratio" (ratio failed attempted);
    ];
  print_stamp
    (base_stamp ~workload:"lookup-zipf" ~seed ~corpus_rows:(Storage.total_rows snap)
       ~calibs:[ ("kernel_setup", cal_setup); ("kernel_capacity", cal) ]
    @ [
        ("distinct_text_frac", json_float (ratio (Hashtbl.length ph.texts) attempted));
        ("replay_hit_rate", json_float (replay_rate d));
        ("plan_hit_rate", json_float (plan_hit_rate d));
        ("open_loop_rate_per_s", json_float lookup_rate);
        ("open_loop_samples", string_of_int (Array.length lat));
        ("capacity_bursts", string_of_int (List.length ph.burst_walls));
        ("burst_answers", string_of_int burst);
        ("sampled_answers", string_of_int (List.length samples));
        ("loadgen_lag_p99_ms", json_float lag_p99);
        ("loadgen_behind", string_of_bool (lag_p99 > behind_ms));
      ]);
  print_result ~correct:(errors = [] && samples <> []) ~attempted ~failed e2e;
  errors = [] && samples <> []

(* ------------------------------------------------------------------ *)
(* publish-rw                                                          *)
(* ------------------------------------------------------------------ *)

let read_rate = 700.
let publishes = 3
let per_publish = 70
let tail_appends = 25

type rw_phases = {
  reads : Loadgen.op list;
  writes : Loadgen.op list;
  pubs : Loadgen.op list;
  texts : string array;  (** appended documents, in order *)
  with_publish : bool array;  (** which segments hold a Publish *)
}

(* the timed phase runs in this many segments of equal schedule time,
   one after the other *)
let segments = 24

(* Warm-up over the hot set, then the timed open-loop phase of length
   [span]: reads at [read_rate]; appends spread evenly, each
   [per_publish]-th followed by a Publish on the same connection (so it
   covers exactly the appends before it), then [tail_appends] that are
   never published.  [between] runs before each segment, and after the
   last, while the server has nothing in flight. *)
let run_rw_phases ?(between = ignore) ~port ~hot ~seed ~span () =
  let n_app = (publishes * per_publish) + tail_appends in
  let texts = Array.init n_app (append_doc ~seed) in
  let readers = Array.init (max 1 (nproc - 1)) (fun _ -> Loadgen.connect port) in
  let writer = Loadgen.connect port in
  let conns = Array.append readers [| writer |] in
  Fun.protect
    ~finally:(fun () -> Array.iter Loadgen.close conns)
    (fun () ->
      ignore
        (Loadgen.rounds readers ~depth
           (Array.init (4 * Array.length hot) (fun i ->
                Loadgen.op Loadgen.Read hot.(i mod Array.length hot)))
           ~deadline:(now () +. 60.));
      let rng = Random.State.make [| seed; 4 |] in
      let n_read = int_of_float (read_rate *. span) in
      let reads =
        List.init n_read (fun i ->
            let o = Loadgen.op Loadgen.Read hot.(Random.State.int rng (Array.length hot)) in
            o.Loadgen.due <- float_of_int i /. read_rate;
            (readers.(i mod Array.length readers), o))
      in
      let writes =
        List.concat
          (List.init n_app (fun j ->
               let due = (float_of_int j +. 0.5) *. span /. float_of_int n_app in
               let w = Loadgen.op Loadgen.Write texts.(j) in
               w.Loadgen.due <- due;
               if (j + 1) mod per_publish = 0 && (j + 1) / per_publish <= publishes then begin
                 let p = Loadgen.op Loadgen.Publish "" in
                 p.Loadgen.due <- due;
                 [ (writer, w); (writer, p) ]
               end
               else [ (writer, w) ]))
      in
      let schedule =
        Array.of_list
          (List.stable_sort
             (fun (_, a) (_, b) -> Float.compare a.Loadgen.due b.Loadgen.due)
             (writes @ reads))
      in
      let seg_len = span /. float_of_int segments in
      let parts = Array.make segments [] in
      Array.iter
        (fun ((_, o) as x) ->
          let k = min (segments - 1) (int_of_float (o.Loadgen.due /. seg_len)) in
          parts.(k) <- x :: parts.(k))
        schedule;
      Array.iteri
        (fun k part ->
          let part = Array.of_list (List.rev part) in
          let lo = float_of_int k *. seg_len in
          Array.iter (fun (_, o) -> o.Loadgen.due <- o.Loadgen.due -. lo) part;
          between ();
          Loadgen.open_loop conns part ~grace:60.)
        parts;
      between ();
      let with_publish =
        Array.map (List.exists (fun (_, o) -> o.Loadgen.kind = Loadgen.Publish)) parts
      in
      let only k = List.filter (fun (_, o) -> o.Loadgen.kind = k) (Array.to_list schedule) |> List.map snd in
      {
        reads = only Loadgen.Read;
        writes = only Loadgen.Write;
        pubs = only Loadgen.Publish;
        texts;
        with_publish;
      })

(* strict-RPC answers for the hot set, after the timed phase *)
let fetch_answers port texts =
  let c = Net.connect ~port () in
  Fun.protect
    ~finally:(fun () -> Net.close c)
    (fun () ->
      Array.to_list
        (Array.map
           (fun text ->
             match Net.rpc c (Net.Query text) with
             | Net.Rows { rows; _ } -> (text, rows)
             | _ -> fail "verification query failed: %s" text)
           texts))

let publish_rw ~seed ~seconds =
  pin generator_cpus;
  let cal_setup = calib () in
  let pid, port, dir, setup_cpu_s, setup_wall_s =
    stand_up ~cal:cal_setup ~durable:true ~name:"publish-rw"
  in
  let dir = Option.get dir in
  let pools = slim_pools () in
  generator_gc ();
  let hot = hot_set pools ~seed in
  let s0 = Loadgen.stats port in
  (* the server's CPU time in each gap between segments, while it is
     idle *)
  let marks = ref [] in
  let between () = marks := proc_cpu_s pid :: !marks in
  let ph = run_rw_phases ~between ~port ~hot ~seed ~span:(0.9 *. seconds) () in
  let marks = Array.of_list (List.rev !marks) in
  let seg_cpu = Array.init segments (fun k -> marks.(k + 1) -. marks.(k)) in
  (* the server CPU of a median segment of reads and appends; the
     segments that hold a publish are left out, since each publish's
     cost (freeze, snapshot write, collection) swung by half from one
     to the next.  It stays in measured seconds: the server works here
     in short bursts, and its CPU time held still where the
     calibration kernel's moved with the host's load (README.md) *)
  let server_cpu_s =
    Stat.median
      (Array.of_list
         (List.filteri (fun k _ -> not ph.with_publish.(k)) (Array.to_list seg_cpu)))
  in
  let d = delta s0 (Loadgen.stats port) in
  let answers = fetch_answers port hot in
  let rss = vm_hwm_mb (string_of_int pid) in
  let store_bytes = dir_bytes dir in
  (* the crash: SIGKILL, then recovery must report every acked append *)
  kill_child pid;
  let c = build_corpus () in
  let acked = List.length (List.filter (fun o -> o.Loadgen.ok) ph.writes) in
  let recovered, info = Serve.recover ~jobs:1 ~params:mem_params ~mapping:c.mapping ~dir () in
  let pending = (Serve.stats recovered).Serve.pending_appends in
  rm_rf dir;
  let recovery_errors =
    (if info.Serve.r_recovered_seq <> acked then
       [ Printf.sprintf "recovered through append %d, %d were acked" info.Serve.r_recovered_seq acked ]
     else [])
    @
    if pending <> tail_appends then
      [ Printf.sprintf "recovery left %d appends pending, expected %d" pending tail_appends ]
    else []
  in
  (* the replica: corpus plus every published append, frozen *)
  let working = shred c in
  let corpus_rows = Storage.total_rows working in
  let published = Array.sub ph.texts 0 (publishes * per_publish) in
  let docs = Array.to_list (Array.map Xml_parse.parse_string published) in
  List.iter (Shred.shred_into working c.mapping) docs;
  let snap = Storage.freeze working in
  let errors = recovery_errors @ check_answers c.mapping snap (c.doc :: docs) answers in
  List.iter (log "publish-rw: %s") errors;
  let all = ph.reads @ ph.writes @ ph.pubs in
  let failed = failures all in
  let lat = lat_ms ph.reads ~from:(fun o -> o.Loadgen.due) in
  let app = lat_ms ph.writes ~from:(fun o -> o.Loadgen.sent) in
  let pub = Array.map (fun x -> x /. 1000.) (lat_ms ph.pubs ~from:(fun o -> o.Loadgen.sent)) in
  if Array.length pub <> publishes then fail "publish-rw: %d of %d publishes answered" (Array.length pub) publishes;
  let publish_s = Stat.median pub in
  let lag = lag_ms (ph.reads @ ph.writes) in
  let lag_p99 = pct "generator lag" lag 99. in
  let xml_bytes =
    String.length (Xml.to_string c.doc)
    + Array.fold_left (fun a t -> a + String.length t) 0 ph.texts
  in
  let e2e =
    [
      m "setup_s" "s" (to_ref cal_setup setup_cpu_s);
      m "cpu_s" "s" server_cpu_s;
      m "rss_mb" "MiB" rss;
    ]
  in
  print_named
    [
      m "setup_host_s" "s" setup_cpu_s;
      m "setup_wall_s" "s" setup_wall_s;
      m "phase_cpu_host_s" "s" (marks.(segments) -. marks.(0));
      m "query_p50_ms" "ms" (pct "latency" lat 50.);
      m "query_p95_ms" "ms" (pct "latency" lat 95.);
      m "query_p99_ms" "ms" (pct "latency" lat 99.);
      m "append_p50_ms" "ms" (pct "append" app 50.);
      (* 235 appends support a p95, not a p99 (ten samples beyond) *)
      m "append_p95_ms" "ms" (pct "append" app 95.);
      m "publish_s" "s" publish_s;
      m "store_bytes_per_xml_byte" "ratio" (float_of_int store_bytes /. float_of_int xml_bytes);
      m "fail_frac" "ratio" (ratio failed (List.length all));
    ];
  print_stamp
    (base_stamp ~workload:"publish-rw" ~seed ~corpus_rows
       ~calibs:[ ("kernel_setup", cal_setup) ]
    @ [
        ("distinct_text_frac", json_float (distinct_frac (List.map (fun o -> o.Loadgen.text) ph.reads)));
        ("replay_hit_rate", json_float (replay_rate d));
        ("plan_hit_rate", json_float (plan_hit_rate d));
        ("read_rate_per_s", json_float read_rate);
        ("read_samples", string_of_int (Array.length lat));
        ("appends", string_of_int (List.length ph.writes));
        ("append_samples", string_of_int (Array.length app));
        ("publishes", string_of_int publishes);
        ("sampled_answers", string_of_int (List.length answers));
        ("loadgen_lag_p99_ms", json_float lag_p99);
        ("loadgen_behind", string_of_bool (lag_p99 > behind_ms));
      ]);
  let correct = errors = [] in
  print_result ~correct ~attempted:(List.length all) ~failed e2e;
  correct
