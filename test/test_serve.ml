(* The query server: plan cache, batched parallel reads, snapshot
   lifecycle, and the frozen-snapshot isolation property. *)

open Legodb
open Test_util

(* a small served corpus: the default synthetic IMDB document under
   the all-inlined configuration *)
let setup () =
  let doc = Lazy.force small_imdb_doc in
  let stats = Collector.collect doc in
  let ps = Init.all_inlined (Annotate.schema stats Imdb.Schema.schema) in
  let m = mapping_of ps in
  (doc, m, Shred.shred m doc)

let q_titles =
  Xq_parse.parse ~name:"titles"
    "FOR $v IN document(\"x\")/imdb/show WHERE $v/year = 1990 RETURN \
     $v/title, $v/year"

let q_actors =
  Xq_parse.parse ~name:"actors"
    "FOR $v IN document(\"x\")/imdb/actor RETURN $v/name"

let q_join =
  Xq_parse.parse ~name:"join"
    "FOR $i IN document(\"x\")/imdb $a in $i/actor, $m1 in $a/played RETURN \
     $a/name, $m1/title"

let q_bad =
  Xq_parse.parse ~name:"bad" "FOR $v in imdb/nothing RETURN $v"

let suite =
  [
    case "repeated statement hits the plan cache, reply identical" (fun () ->
        let _, m, db = setup () in
        let s = Serve.create ~jobs:2 m db in
        let r1 = Serve.query s q_titles in
        check_bool "first is a miss" false r1.Serve.cached;
        let r2 = Serve.query s q_titles in
        check_bool "second is a hit" true r2.Serve.cached;
        check_bool "identical rows" true (r1.Serve.rows = r2.Serve.rows);
        (* statement identity is structural: a renamed copy still hits *)
        let renamed = { q_titles with Xq_ast.name = "other_name" } in
        check_bool "renamed query hits" true
          (Serve.query s renamed).Serve.cached;
        let st = Serve.stats s in
        check_int "one compilation" 1 st.Serve.cache_misses;
        check_int "two hits" 2 st.Serve.cache_hits);
    case "run_batch equals sequential queries" (fun () ->
        let _, m, db = setup () in
        let s = Serve.create ~jobs:4 m db in
        let reqs =
          Array.init 24 (fun i ->
              [| q_titles; q_actors; q_join |].(i mod 3))
        in
        let sequential =
          Array.map (fun q -> (Serve.query s q).Serve.rows) reqs
        in
        let batched = Serve.run_batch s reqs in
        Array.iteri
          (fun i r ->
            match r with
            | Ok (r : Serve.reply) ->
                check_bool
                  (Printf.sprintf "request %d identical" i)
                  true
                  (r.Serve.rows = sequential.(i))
            | Error e -> Alcotest.failf "request %d failed: %s" i e)
          batched);
    case "untranslatable request is an Error, batch survives" (fun () ->
        let _, m, db = setup () in
        let s = Serve.create ~jobs:2 m db in
        let batched = Serve.run_batch s [| q_titles; q_bad; q_actors |] in
        (match batched.(1) with
        | Error e -> check_bool "message" true (contains e "untranslatable")
        | Ok _ -> Alcotest.fail "expected an error for the bad request");
        (match (batched.(0), batched.(2)) with
        | Ok _, Ok _ -> ()
        | _ -> Alcotest.fail "good requests must still be answered");
        (* the server keeps serving afterwards *)
        check_bool "still serving" true
          ((Serve.query s q_titles).Serve.rows <> []
          || (Serve.query s q_actors).Serve.rows <> []));
    case "append is invisible until publish" (fun () ->
        let doc, m, db = setup () in
        let s = Serve.create ~jobs:2 m db in
        let before_rows = Storage.total_rows (Serve.snapshot s) in
        let before = (Serve.query s q_actors).Serve.rows in
        Serve.append s doc;
        check_int "snapshot rows unchanged" before_rows
          (Storage.total_rows (Serve.snapshot s));
        check_bool "answers unchanged" true
          ((Serve.query s q_actors).Serve.rows = before);
        check_int "pending" 1 (Serve.stats s).Serve.pending_appends;
        Serve.publish s;
        let st = Serve.stats s in
        check_int "published" 1 st.Serve.snapshots_published;
        check_int "no pending" 0 st.Serve.pending_appends;
        check_bool "snapshot grew" true
          (Storage.total_rows (Serve.snapshot s) > before_rows);
        check_int "answers doubled" (2 * List.length before)
          (List.length (Serve.query s q_actors).Serve.rows));
    case "snapshot is frozen, working store stays private" (fun () ->
        let _, m, db = setup () in
        let s = Serve.create m db in
        check_bool "snapshot frozen" true
          (Storage.is_frozen (Serve.snapshot s));
        (* a frozen store cannot be served: the working store must be
           able to take appends *)
        match Serve.create m (Serve.snapshot s) with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    case "per-request timeout degrades to an Error slot" (fun () ->
        let _, m, db = setup () in
        (* an injected clock that leaps 10s per reading: every request
           blows any small budget at its first block boundary *)
        let now = ref 0. in
        let clock () =
          now := !now +. 10.;
          !now
        in
        let s = Serve.create ~jobs:1 ~clock m db in
        let replies =
          Serve.run_batch ~timeout_ms:5 s [| q_titles; q_actors |]
        in
        Array.iter
          (function
            | Error e -> check_bool "names timeout" true (contains e "timeout")
            | Ok _ -> Alcotest.fail "expected a timeout")
          replies;
        (* a generous budget answers normally on the same server *)
        (match (Serve.run_batch ~timeout_ms:1_000_000 s [| q_titles |]).(0) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "unexpected error: %s" e);
        (* no budget at all: unchanged behavior *)
        match (Serve.run_batch s [| q_titles |]).(0) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "unexpected error: %s" e);
    case "publish keeps plans over unchanged tables, recompiles changed ones"
      (fun () ->
        let doc, m, db = setup () in
        let s = Serve.create ~jobs:1 m db in
        ignore (Serve.query s q_actors);
        (* the one-shot path: translate, optimize every block, execute *)
        let one_shot () =
          let snap = Serve.snapshot s in
          let cat = Storage.catalog snap in
          List.concat_map
            (fun (b : Logical.block) ->
              fst
                (Executor.run_block snap
                   (Optimizer.optimize_block cat b).Optimizer.plan
                   b.Logical.out))
            (Xq_translate.translate m q_actors).Logical.blocks
        in
        Serve.publish s;
        let r = Serve.query s q_actors in
        check_bool "publish without appends: still cached" true r.Serve.cached;
        check_bool "rows equal the one-shot path" true
          (r.Serve.rows = one_shot ());
        Serve.append s doc;
        Serve.publish s;
        let r' = Serve.query s q_actors in
        check_bool "publish after appends: recompiled" false r'.Serve.cached;
        check_bool "rows equal the one-shot path after appends" true
          (r'.Serve.rows = one_shot ());
        check_int "the appended actors are answered"
          (2 * List.length r.Serve.rows)
          (List.length r'.Serve.rows);
        let st = Serve.stats s in
        check_int "two compilations" 2 st.Serve.cache_misses;
        check_int "one hit" 1 st.Serve.cache_hits);
    case "distinct constants do not grow the statement table" (fun () ->
        let _, m, db = setup () in
        let s = Serve.create ~jobs:1 m db in
        let q i =
          Xq_parse.parse ~name:"q"
            (Printf.sprintf
               "FOR $v IN document(\"x\")/imdb/show WHERE $v/year = %d RETURN \
                $v/title"
               i)
        in
        let serve_range lo hi =
          for i = lo to hi - 1 do
            ignore (Serve.query s (q i))
          done
        in
        let live () =
          Gc.full_major ();
          (Gc.stat ()).Gc.live_words
        in
        (* the table holds 4096 statements and empties when the next
           one arrives: statement 4096 + 1 is the first reset point,
           3 * 4096 + 1 the third *)
        let cap = 4096 in
        serve_range 0 (cap + 1);
        let first = live () in
        serve_range (cap + 1) ((3 * cap) + 1);
        let third = live () in
        (* for scale: the live size of [cap] translations *)
        let translations =
          List.init cap (fun i -> Xq_translate.translate m (q i))
        in
        let with_translations = live () in
        ignore (Sys.opaque_identity translations);
        let bound = with_translations - third in
        check_int "every statement served" ((3 * cap) + 1)
          (Serve.stats s).Serve.served;
        check_bool
          (Printf.sprintf "live words grew by %d, under %d" (third - first)
             bound)
          true
          (third - first < bound));
    case "summarize percentiles (nearest rank)" (fun () ->
        let lat = Array.init 100 (fun i -> float_of_int (i + 1) /. 1000.) in
        let s = Serve.summarize ~wall_s:0.5 lat in
        check_int "n" 100 s.Serve.n;
        check_bool "qps" true (Float.equal s.Serve.qps 200.);
        check_bool "p50" true (Float.equal s.Serve.p50_ms 50.);
        check_bool "p95" true (Float.equal s.Serve.p95_ms 95.);
        check_bool "p99" true (Float.equal s.Serve.p99_ms 99.);
        let empty = Serve.summarize ~wall_s:0. [||] in
        check_int "empty n" 0 empty.Serve.n);
  ]

(* ------------------------------------------------------------------ *)
(* property: frozen-snapshot isolation under concurrency               *)
(* ------------------------------------------------------------------ *)

(* Readers running concurrently with a writer that appends toward the
   next snapshot must see answers bit-identical to the quiescent
   baseline: appends only become visible at the publish barrier. *)
let prop_frozen_readers =
  QCheck2.Test.make ~name:"concurrent readers see the frozen snapshot"
    ~count:10
    QCheck2.Gen.(list_size (int_range 1 12) (int_range 0 2))
    (fun picks ->
      let doc, m, db = setup () in
      let s = Serve.create ~jobs:4 m db in
      let pool = [| q_titles; q_actors; q_join |] in
      let baseline =
        List.map (fun i -> (Serve.query s pool.(i)).Serve.rows) picks
      in
      let reader i () = (Serve.query s pool.(i)).Serve.rows in
      let writer () =
        Serve.append s doc;
        []
      in
      let results =
        Par.run_list (writer :: List.map reader picks)
      in
      let read_back = List.tl results in
      let isolated = List.for_all2 (fun b r -> b = r) baseline read_back in
      (* the pending append surfaces exactly at the barrier *)
      let before = Storage.total_rows (Serve.snapshot s) in
      Serve.publish s;
      isolated && Storage.total_rows (Serve.snapshot s) > before)

let props = [ QCheck_alcotest.to_alcotest prop_frozen_readers ]
