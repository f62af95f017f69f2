(* The traced run: per-layer numbers, separate from the timed runs.

   Every traced run measures every layer, each on the workload its
   metric is defined on (README.md's table), with the run's seed:

   - serving, in process: the benchmark replays lookup-zipf's request
     stream and publish-rw's read and append streams against its own
     replica of the server's state, calling each layer's public
     function in the order the front door does, and records a span per
     call (name, start, end, parent, request id);
   - serving, over the network: the same streams once more against a
     real server child, bracketed by Stats requests, for the loop's own
     counters;
   - design: the fixed search set once, reading the engine snapshots
     and the parallel seam's counters, and timing Space.neighbors along
     every greedy trace.

   Spans stay in memory and are written to .perfbench/ at the end. *)

open Legodb
open Common

(* ------------------------------------------------------------------ *)
(* spans                                                               *)
(* ------------------------------------------------------------------ *)

type recorder = { mutable spans : Stat.span list; mutable on : bool }

let recorder () = { spans = []; on = true }

(* span ids are unique across recorders, so their spans can share a file *)
let next_id = ref 0

(* run [f] inside a span; [f] receives the span's id, the parent of
   whatever it records in turn *)
let span r ~name ~parent ~req f =
  if not r.on then f (-1)
  else begin
    let id = !next_id in
    incr next_id;
    let t0 = now () in
    let x = f id in
    r.spans <- { Stat.id; name; parent; req; t0; t1 = now () } :: r.spans;
    x
  end

(* self time per span name: (total seconds, count) *)
let self_by_name spans =
  let arr = Array.of_list spans in
  let names = Hashtbl.create 16 in
  Array.iter (fun (s : Stat.span) -> Hashtbl.replace names s.Stat.id s.Stat.name) arr;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (id, self) ->
      let n = Hashtbl.find names id in
      let t, k = Option.value (Hashtbl.find_opt acc n) ~default:(0., 0) in
      Hashtbl.replace acc n (t +. self, k + 1))
    (Stat.self_times arr);
  acc

let mean_us acc name =
  match Hashtbl.find_opt acc name with
  | Some (t, k) when k > 0 -> 1e6 *. t /. float_of_int k
  | _ -> fail "trace: no %s spans" name

let write_spans path spans =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (s : Stat.span) ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %s, \"parent\": %d, \"req\": %d, \"t0\": %.6f, \"t1\": %.6f}\n"
            s.Stat.id (json_string s.Stat.name) s.Stat.parent s.Stat.req s.Stat.t0 s.Stat.t1)
        (List.rev spans))

(* ------------------------------------------------------------------ *)
(* in-process replay of the query path                                 *)
(* ------------------------------------------------------------------ *)

let decode_query frame =
  match Net.extract frame with
  | `Frame (payload, _) -> (
      match Net.decode_request payload with
      | Net.Query q -> q
      | _ -> fail "trace: not a query frame")
  | _ -> fail "trace: broken frame"

(* One request through the layers the front door calls, in its order:
   decode the frame, probe the replay cache (when [replay] is given),
   parse, Serve.query, encode the response — and, like the front door,
   encode a second copy for the replay cache.  Returns the rows. *)
let serve_request r srv ~replay ~req frame =
  span r ~name:"request" ~parent:(-1) ~req (fun root ->
      let text = span r ~name:"wire.decode" ~parent:root ~req (fun _ -> decode_query frame) in
      let replayed =
        match replay with
        | None -> None
        | Some tbl -> span r ~name:"net.replay" ~parent:root ~req (fun _ -> Hashtbl.find_opt tbl text)
      in
      match replayed with
      | Some rows -> rows
      | None ->
          let ast = span r ~name:"xq_parse" ~parent:root ~req (fun _ -> Xq_parse.parse ~name:"net" text) in
          let reply = span r ~name:"serve.query" ~parent:root ~req (fun _ -> Serve.query srv ast) in
          let rows = reply.Serve.rows in
          ignore
            (span r ~name:"wire.encode" ~parent:root ~req (fun _ ->
                 Net.encode_response (Net.Rows { rows; cached = reply.Serve.cached })));
          Option.iter
            (fun tbl ->
              if Hashtbl.length tbl < 4096 then
                span r ~name:"wire.encode" ~parent:root ~req (fun _ ->
                    ignore (Net.encode_response (Net.Rows { rows; cached = true }));
                    Hashtbl.replace tbl text rows))
            replay;
          rows)

let replay_stream r srv ~replay frames =
  Array.mapi (fun i f -> serve_request r srv ~replay ~req:i f) frames

type oneshot = {
  translate_us : float;
  optimize_us : float;
  execute_us : float;
  examined_per_row : float;
  alloc_words : float;
  hit_us : float;
  miss_us : float;
}

(* The miss path layer by layer (the correctness check's one-shot
   path: translate, optimize every block, execute), then Serve.query on
   a cached plan and with the cache bypassed, over [texts] on the
   replica. *)
let oneshot_layers r ~base srv mapping snap texts =
  let n = Array.length texts in
  let alloc = ref 0. and examined = ref 0 and out_rows = ref 0 in
  let hit = ref 0. and miss = ref 0. in
  Array.iteri
    (fun i text ->
      let req = base + i in
      let ast = Xq_parse.parse ~name:"net" text in
      let blocks =
        span r ~name:"oneshot" ~parent:(-1) ~req (fun root ->
            let run name f =
              span r ~name ~parent:root ~req (fun _ ->
                  let w0 = Gc.minor_words () in
                  let x = f () in
                  if name = "executor" then alloc := !alloc +. (Gc.minor_words () -. w0);
                  x)
            in
            one_shot ~layers:{ run } mapping snap ast)
      in
      List.iter
        (fun (rows, (ms : Executor.measures)) ->
          examined := !examined + ms.Executor.tuples_scanned + ms.Executor.index_probes;
          out_rows := !out_rows + List.length rows)
        blocks;
      ignore (Serve.query srv ast);
      let _, t = time (fun () -> Serve.query srv ast) in
      hit := !hit +. t;
      let _, t = time (fun () -> Serve.query ~use_cache:false srv ast) in
      miss := !miss +. t)
    texts;
  let acc = self_by_name r.spans in
  let per x = 1e6 *. x /. float_of_int n in
  {
    translate_us = mean_us acc "xq_translate";
    optimize_us = mean_us acc "optimizer";
    execute_us = mean_us acc "executor";
    examined_per_row = float_of_int !examined /. float_of_int (max 1 !out_rows);
    alloc_words = !alloc /. float_of_int n;
    hit_us = per !hit;
    miss_us = per !miss;
  }

(* ------------------------------------------------------------------ *)
(* in-process replay of the append path                                *)
(* ------------------------------------------------------------------ *)

type appends = {
  parse_us_per_kb : float;
  shred_us_per_row : float;
  flush_ms : float;
  bytes_per_append : float;
  freeze_s : float;
  snapshot_write_s : float;
  snapshot_bytes_per_row : float;
}

(* Each document: XML parse, shred into a working store, then stage +
   flush its rows as one WAL commit on a scratch log; every
   [per_publish] appends, freeze the store and write its snapshot —
   the work Serve.append and Serve.publish do on a durable server. *)
let append_layers r ~dir c texts =
  let working = shred c in
  let tables = List.map (fun t -> t.Rschema.tname) (Storage.catalog working).Rschema.tables in
  let wal = Wal.create ~next_seq:1 (Filename.concat dir "wal.legodb") in
  let kb = ref 0. and rows_added = ref 0 and rec_bytes = ref 0 in
  let freezes = ref [] and writes = ref [] and snap_bytes = ref [] in
  Array.iteri
    (fun i text ->
      let req = 100_000 + i in
      span r ~name:"append" ~parent:(-1) ~req (fun root ->
          let before = List.map (fun t -> (t, Storage.row_count working t)) tables in
          let doc = span r ~name:"xml_parse" ~parent:root ~req (fun _ -> Xml_parse.parse_string text) in
          span r ~name:"shred" ~parent:root ~req (fun _ -> Shred.shred_into working c.mapping doc);
          let rows =
            List.filter_map
              (fun (t, k) ->
                let k' = Storage.row_count working t in
                if k' = k then None else Some (t, List.init (k' - k) (fun j -> Storage.get working t (k + j))))
              before
          in
          kb := !kb +. (float_of_int (String.length text) /. 1024.);
          rows_added := !rows_added + List.fold_left (fun a (_, rs) -> a + List.length rs) 0 rows;
          rec_bytes := !rec_bytes + String.length (Wal.encode_record { Wal.seq = i + 1; rows });
          span r ~name:"wal.flush" ~parent:root ~req (fun _ ->
              ignore (Wal.stage wal rows);
              Wal.flush wal));
      if (i + 1) mod Serving.per_publish = 0 && (i + 1) / Serving.per_publish <= Serving.publishes then begin
        let frozen, tf = time (fun () -> Storage.freeze working) in
        let path = Filename.concat dir "snapshot.legodb" in
        let (), tw =
          time (fun () ->
              Wal.write_snapshot ~path ~schema:c.mapping.Mapping.schema
                ~ordered:c.mapping.Mapping.ordered ~last_seq:(i + 1) frozen)
        in
        freezes := tf :: !freezes;
        writes := tw :: !writes;
        snap_bytes :=
          (float_of_int (Unix.stat path).Unix.st_size /. float_of_int (Storage.total_rows frozen))
          :: !snap_bytes
      end)
    texts;
  Wal.close wal;
  let acc = self_by_name r.spans in
  let total name = fst (Option.value (Hashtbl.find_opt acc name) ~default:(0., 0)) in
  let n = float_of_int (Array.length texts) in
  let med l = Stat.median (Array.of_list l) in
  {
    parse_us_per_kb = 1e6 *. total "xml_parse" /. !kb;
    shred_us_per_row = 1e6 *. total "shred" /. float_of_int !rows_added;
    flush_ms = 1000. *. total "wal.flush" /. n;
    bytes_per_append = float_of_int !rec_bytes /. n;
    freeze_s = med !freezes;
    snapshot_write_s = med !writes;
    snapshot_bytes_per_row = med !snap_bytes;
  }

(* ------------------------------------------------------------------ *)
(* design                                                              *)
(* ------------------------------------------------------------------ *)

let design_layers () =
  let ann = Design.collect () in
  Search.seam_reset ();
  let ss, design_s = time (fun () -> Design.searches ~jobs:nproc ann) in
  let seam = Search.seam_stats () in
  let eng =
    List.fold_left
      (fun (a : Cost_engine.snapshot) s ->
        let e = s.Design.result.Search.engine in
        {
          Cost_engine.evaluations = a.Cost_engine.evaluations + e.Cost_engine.evaluations;
          hits = a.Cost_engine.hits + e.Cost_engine.hits;
          misses = a.Cost_engine.misses + e.Cost_engine.misses;
          faults = a.Cost_engine.faults + e.Cost_engine.faults;
          t_mapping = a.Cost_engine.t_mapping +. e.Cost_engine.t_mapping;
          t_translate = a.Cost_engine.t_translate +. e.Cost_engine.t_translate;
          t_optimize = a.Cost_engine.t_optimize +. e.Cost_engine.t_optimize;
        })
      Cost_engine.empty_snapshot ss
  in
  let neighbors_s =
    List.fold_left
      (fun acc s ->
        if not (Design.is_greedy s) then acc
        else
          List.fold_left
            (fun acc cfg -> acc +. snd (time (fun () -> Space.neighbors ~kinds:s.Design.kinds cfg)))
            acc (Design.path s))
      0. ss
  in
  let errors =
    List.filter_map
      (fun s ->
        let c = Search.pschema_cost ~workload:s.Design.workload s.Design.result.Search.schema in
        if Design.same_float c s.Design.result.Search.cost then None
        else Some (s.Design.label ^ ": winner cost differs from one-shot"))
      ss
  in
  let failed = List.fold_left (fun a s -> a + List.length s.Design.result.Search.failures) 0 ss in
  ( [
      m "cost_engine.evaluations" "count" (float_of_int eng.Cost_engine.evaluations);
      m "cost_engine.hit_rate" "ratio" (Cost_engine.hit_rate eng);
      m "cost_engine.mapping_s" "s" eng.Cost_engine.t_mapping;
      m "cost_engine.translate_s" "s" eng.Cost_engine.t_translate;
      m "cost_engine.optimize_s" "s" eng.Cost_engine.t_optimize;
      m "space.neighbors_s" "s" neighbors_s;
      m "search.other_s" "s" (design_s -. seam.Search.s_t_fanout -. neighbors_s);
      m "par.fanout_s" "s" seam.Search.s_t_fanout;
      m "par.barrier_idle_s" "s" seam.Search.s_t_barrier_idle;
    ],
    List.length ss,
    failed,
    errors )

(* ------------------------------------------------------------------ *)
(* the traced run                                                      *)
(* ------------------------------------------------------------------ *)

let lookup_trace_requests = 3000
let rw_trace_reads = 2000

let run ~workload ~seed ~seconds =
  let dir = Filename.concat work_dir (Printf.sprintf "trace-%d" (Unix.getpid ())) in
  mkdir_p dir;
  (* the server child first: no domain may exist when it forks *)
  let data_dir = Filename.concat dir "data" in
  let pid, port, _ = spawn_server ~data_dir () in
  (* the host's speed, for the stamp *)
  let cal = calib () in
  for _ = 1 to 3 do calibrate cal done;
  let c = build_corpus () in
  let snap0, shred_s = time (fun () -> shred c) in
  let snap = Storage.freeze snap0 in
  let pools = pools c.doc in
  let srv = Serve.create ~jobs:1 ~params:mem_params c.mapping (shred c) in
  (* lookup-zipf, in process: warm-up stream, then the traced stream *)
  let stream phase n =
    let g = Serving.lookup_stream pools ~seed ~phase in
    Array.init n (fun _ -> g ())
  in
  let warm = stream 0 Serving.warmup_requests in
  let texts = stream 1 lookup_trace_requests in
  let frames = Array.map (fun t -> Net.encode_request (Net.Query t)) texts in
  let replay = Hashtbl.create 4096 in
  let r = recorder () in
  r.on <- false;
  ignore (replay_stream r srv ~replay:(Some replay) (Array.map (fun t -> Net.encode_request (Net.Query t)) warm));
  r.on <- true;
  let rows = replay_stream r srv ~replay:(Some replay) frames in
  let lookup_spans = r.spans in
  let acc = self_by_name lookup_spans in
  let roots, layers =
    List.fold_left
      (fun (ro, la) (s : Stat.span) ->
        if s.Stat.parent < 0 then (ro +. (s.Stat.t1 -. s.Stat.t0), la)
        else (ro, la +. (s.Stat.t1 -. s.Stat.t0)))
      (0., 0.) lookup_spans
  in
  let layer_sum_us = 1e6 *. layers /. float_of_int lookup_trace_requests in
  (* tracing overhead: the same (now warm) stream, untraced vs traced *)
  let timed on =
    r.on <- on;
    let tbl = Hashtbl.copy replay in
    let _, t = time (fun () -> replay_stream r srv ~replay:(Some tbl) frames) in
    t
  in
  let saved = r.spans in
  let u1 = timed false in
  let t1 = timed true in
  let u2 = timed false in
  let t2 = timed true in
  r.spans <- saved;
  r.on <- true;
  let overhead = (t1 +. t2) /. (u1 +. u2) in
  let one = oneshot_layers r ~base:10_000 srv c.mapping snap texts in
  (* publish-rw, in process: reads over the hot set, then the appends *)
  let hot = Serving.hot_set pools ~seed in
  let rng = Random.State.make [| seed; 4 |] in
  let rw_texts = Array.init rw_trace_reads (fun _ -> hot.(Random.State.int rng (Array.length hot))) in
  let r_rw = recorder () in
  ignore
    (replay_stream r_rw srv ~replay:None
       (Array.map (fun t -> Net.encode_request (Net.Query t)) rw_texts));
  let acc_rw = self_by_name r_rw.spans in
  let one_rw = oneshot_layers r_rw ~base:20_000 srv c.mapping snap rw_texts in
  let n_app = (Serving.publishes * Serving.per_publish) + Serving.tail_appends in
  let app_texts = Array.init n_app (Serving.append_doc ~seed) in
  let r_app = recorder () in
  let app = append_layers r_app ~dir c app_texts in
  (* correctness: the in-process answers against the one-shot path *)
  let keep = Serving.sampler ~seed ~every:20 ~cap:150 in
  let local =
    List.filter_map
      (fun i -> if keep () then Some (texts.(i), rows.(i)) else None)
      (List.init lookup_trace_requests Fun.id)
  in
  (* the network reruns, bracketed by Stats *)
  let s0 = Loadgen.stats port in
  let keep_net = Serving.sampler ~seed:(seed + 1) ~every:40 ~cap:100 in
  let ph =
    Serving.run_lookup_phases ~cal ~port ~server:pid ~pools ~seed
      ~bursts:(Serving.bursts_per_s * int_of_float seconds / 2)
      ~open_s:(0.2 *. seconds) ~keep:keep_net
  in
  let s1 = Loadgen.stats port in
  let d_lookup = Serving.delta s0 s1 in
  let rw = Serving.run_rw_phases ~port ~hot ~seed ~span:(0.5 *. seconds) () in
  let d_rw = Serving.delta s1 (Loadgen.stats port) in
  kill_child pid;
  (* design last: its search spawns the worker domains, which would
     otherwise join every collection of the serving replays above *)
  let design, n_searches, design_failed, design_errors = design_layers () in
  let open_ops = ph.Serving.open_ops in
  let net_samples = Serving.sampled_answers (ph.Serving.cap_kept @ open_ops) in
  let errors = design_errors @ check_answers c.mapping snap [ c.doc ] (local @ net_samples) in
  List.iter (log "trace: %s") errors;
  let rw_ops = open_ops @ rw.Serving.reads @ rw.Serving.writes @ rw.Serving.pubs in
  let net_attempted = ph.Serving.cap_done + List.length rw_ops in
  let net_failed = ph.Serving.cap_failed + Serving.failures rw_ops in
  let lag = Serving.lag_ms open_ops in
  let lag_p99 = Serving.pct "generator lag" lag 99. in
  let dn = d_lookup.Serving.dn in
  let q = float_of_int d_lookup.Serving.queries in
  let work_us = 1e6 *. dn.Net.work_s /. q in
  let ds = d_lookup.Serving.ds in
  let per_layer =
    [
      m "net.work_us_per_query" "us" work_us;
      m "net.select_frac" "ratio" (dn.Net.select_s /. (dn.Net.select_s +. dn.Net.work_s));
      m "net.batch_mean" "count" (Serving.ratio dn.Net.batched_queries dn.Net.batches);
      m "net.replay_hit_rate" "ratio" (Serving.replay_rate d_lookup);
      m "net.bytes_out_per_query" "bytes"
        (Serving.ratio d_rw.Serving.dn.Net.bytes_out d_rw.Serving.queries);
      m "net.unattributed_us" "us" (work_us -. layer_sum_us);
      m "wire.decode_us" "us" (mean_us acc "wire.decode");
      m "wire.encode_us" "us" (mean_us acc_rw "wire.encode");
      m "xq_parse.us" "us" (mean_us acc "xq_parse");
      m "serve.plan_hit_rate" "ratio" (Serving.plan_hit_rate d_lookup);
      m "serve.compiles_per_kq" "count"
        (1000. *. Serving.ratio ds.Serve.cache_misses dn.Net.batched_queries);
      m "serve.query_hit_us" "us" one.hit_us;
      m "serve.key_us" "us" (one.hit_us -. one.execute_us);
      m "serve.query_miss_us" "us" one.miss_us;
      m "xq_translate.us" "us" one.translate_us;
      m "optimizer.us" "us" one.optimize_us;
      m "executor.us" "us" one_rw.execute_us;
      m "executor.rows_examined_per_row" "ratio" one_rw.examined_per_row;
      m "executor.alloc_words_per_query" "words" one.alloc_words;
      m "xml_parse.us_per_kb" "us/KB" app.parse_us_per_kb;
      m "shred.us_per_row" "us" app.shred_us_per_row;
      m "wal.flush_ms" "ms" app.flush_ms;
      m "wal.fsyncs_per_append" "ratio"
        (Serving.ratio d_rw.Serving.ds.Serve.wal_fsyncs d_rw.Serving.ds.Serve.wal_appends);
      m "wal.group_mean" "count"
        (Serving.ratio d_rw.Serving.ds.Serve.wal_appends d_rw.Serving.ds.Serve.wal_groups);
      m "wal.bytes_per_append" "bytes" app.bytes_per_append;
      m "wal.snapshot_bytes_per_row" "bytes" app.snapshot_bytes_per_row;
      m "storage.freeze_s" "s" app.freeze_s;
      m "wal.snapshot_write_s" "s" app.snapshot_write_s;
      m "imdb_gen.s" "s" c.t_gen;
      m "shred.bulk_s" "s" shred_s;
      m "collector.s" "s" c.t_collect;
    ]
    @ design
    @ [
        m "loadgen.lag_p99_ms" "ms" lag_p99;
        m "trace.layer_sum_frac" "ratio" (layers /. roots);
        m "trace.overhead" "ratio" overhead;
      ]
  in
  let span_file = Filename.concat work_dir (Printf.sprintf "trace-%s-seed%d.jsonl" workload seed) in
  (* r holds the lookup replay's spans and the one-shot pass's *)
  write_spans span_file (r.spans @ r_rw.spans @ r_app.spans);
  rm_rf dir;
  log "spans written to %s" span_file;
  print_stamp
    (base_stamp ~workload ~seed ~corpus_rows:(Storage.total_rows snap) ~calibs:[ ("kernel", cal) ]
    @ [
        ("traced_requests", string_of_int lookup_trace_requests);
        ("distinct_text_frac", json_float (Serving.distinct_frac (Array.to_list texts)));
        ("replay_hit_rate", json_float (Serving.replay_rate d_lookup));
        ("plan_hit_rate", json_float (Serving.plan_hit_rate d_lookup));
        ("publish_rw_replay_hit_rate", json_float (Serving.replay_rate d_rw));
        ("publish_rw_plan_hit_rate", json_float (Serving.plan_hit_rate d_rw));
        ("loadgen_behind", string_of_bool (lag_p99 > Serving.behind_ms));
        ("spans", json_string span_file);
      ]);
  let correct = errors = [] in
  print_result ~correct
    ~attempted:(net_attempted + n_searches)
    ~failed:(net_failed + design_failed) per_layer;
  correct
