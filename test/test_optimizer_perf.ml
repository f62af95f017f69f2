(* Differential tests holding the mask-indexed optimizer bit-identical
   to the frozen reference implementation (Optimizer_reference): same
   best plan, same row estimate, same cost — to the last float bit —
   on random catalogs and blocks, with and without the shared
   common-subexpression cache. *)

open Legodb

let params = Cost.default_params

let bits = Int64.bits_of_float

let same_float what a b =
  Alcotest.(check int64) what (bits a) (bits b)

let same_cost what (a : Cost.t) (b : Cost.t) =
  same_float (what ^ ".seeks") a.Cost.seeks b.Cost.seeks;
  same_float (what ^ ".pages_read") a.Cost.pages_read b.Cost.pages_read;
  same_float (what ^ ".pages_written") a.Cost.pages_written b.Cost.pages_written;
  same_float (what ^ ".cpu") a.Cost.cpu b.Cost.cpu

let same_result what (fast : Optimizer.result) (ref_ : Optimizer_reference.result)
    =
  if fast.Optimizer.plan <> ref_.Optimizer_reference.plan then
    Alcotest.failf "%s: plans differ:@.fast %a@.ref  %a" what Physical.pp
      fast.Optimizer.plan Physical.pp ref_.Optimizer_reference.plan;
  same_float (what ^ ".rows") fast.Optimizer.rows ref_.Optimizer_reference.rows;
  same_cost (what ^ ".cost") fast.Optimizer.cost ref_.Optimizer_reference.cost

(* ---------- generators ---------- *)

(* every table shares the column set {id, a, b, c} so any (alias,
   column) pair is wellformed; what varies is cardinality, statistics,
   and which columns are indexed *)
let data_cols = [ "a"; "b"; "c" ]

let gen_table name =
  QCheck2.Gen.(
    let* card = oneofl [ 10.; 120.; 4000.; 150000. ] in
    let* widths = list_repeat 3 (oneofl [ 4.; 8.; 40. ]) in
    let* distincts =
      list_repeat 3 (oneofl [ 1.; 7.; 50.; card /. 2.; card ])
    in
    let* null_fracs = list_repeat 3 (oneofl [ 0.; 0.1; 0.5 ]) in
    let* ranged = list_repeat 3 bool in
    let* extra_indexed = list_repeat 3 bool in
    let col cname ~width ~distinct ~null_frac ~range =
      {
        Rschema.cname;
        ctype = Rtype.R_int;
        nullable = null_frac > 0.;
        stats =
          {
            Rschema.distinct = Float.max 1. (Float.min distinct card);
            null_frac;
            v_min = (if range then Some 0 else None);
            v_max = (if range then Some (int_of_float card) else None);
            avg_width = width;
          };
      }
    in
    let key = col "id" ~width:4. ~distinct:card ~null_frac:0. ~range:true in
    let data =
      List.map
        (fun (((cname, width), (distinct, null_frac)), range) ->
          col cname ~width ~distinct ~null_frac ~range)
        (List.combine
           (List.combine
              (List.combine data_cols widths)
              (List.combine distincts null_fracs))
           ranged)
    in
    let indexed =
      "id"
      :: List.filter_map
           (fun (c, b) -> if b then Some c else None)
           (List.combine data_cols extra_indexed)
    in
    return
      {
        Rschema.tname = name;
        key = "id";
        columns = key :: data;
        fks = [];
        indexed;
        card;
      })

let gen_catalog =
  QCheck2.Gen.(
    let* n = int_range 2 5 in
    let+ tables =
      flatten_l (List.init n (fun i -> gen_table (Printf.sprintf "t%d" i)))
    in
    { Rschema.tables })

let gen_cmp =
  QCheck2.Gen.oneofl
    Logical.[ C_eq; C_eq; C_eq; C_ne; C_lt; C_le; C_gt; C_ge ]

let gen_col alias = QCheck2.Gen.(map (fun c -> (alias, c)) (oneofl data_cols))

(* a block over [nrels] aliases: mostly a connected join graph (each
   alias after the first joins some earlier alias with probability
   ~7/8, so disconnected cross-product fallbacks are exercised too),
   plus a few local constant predicates and stray column-column
   comparisons *)
let gen_block (cat : Rschema.t) nrels =
  QCheck2.Gen.(
    let tnames = List.map (fun (t : Rschema.table) -> t.tname) cat.tables in
    let aliases = List.init nrels (fun i -> Printf.sprintf "r%d" i) in
    let* tabs = list_repeat nrels (oneofl tnames) in
    let relations =
      List.map2 (fun alias table -> { Logical.alias; table }) aliases tabs
    in
    let* joins =
      flatten_l
        (List.filteri
           (fun i _ -> i > 0)
           (List.mapi
              (fun i a ->
                let* connectp = int_range 0 7 in
                if connectp = 0 && i > 0 then return []
                else
                  let* j = int_range 0 (max 0 (i - 1)) in
                  let* lhs = gen_col (List.nth aliases j) in
                  let* rc = gen_col a in
                  let* cmp = gen_cmp in
                  return [ { Logical.cmp; lhs; rhs = Logical.O_col rc } ])
              aliases))
    in
    let* nlocal = int_range 0 3 in
    let* locals =
      list_repeat nlocal
        (let* a = oneofl aliases in
         let* lhs = gen_col a in
         let* cmp = gen_cmp in
         let* v = int_range 0 100 in
         return { Logical.cmp; lhs; rhs = Logical.O_const (Rtype.V_int v) })
    in
    let* nout = int_range 0 3 in
    let* out =
      list_repeat nout
        (let* a = oneofl aliases in
         gen_col a)
    in
    return { Logical.relations; preds = List.concat joins @ locals; out })

let gen_case =
  QCheck2.Gen.(
    let* cat = gen_catalog in
    let* nrels = int_range 2 8 in
    let+ block = gen_block cat nrels in
    (cat, block))

let gen_shared_case =
  QCheck2.Gen.(
    let* cat = gen_catalog in
    let* sizes = list_size (int_range 2 4) (int_range 2 6) in
    let+ blocks = flatten_l (List.map (gen_block cat) sizes) in
    (cat, blocks))

(* blocks at the DP limit, where the design search spends its time.
   [cut] splits the aliases into r0..r(cut-1) and the rest and drops
   every predicate across the cut, so for 0 < cut < nrels the join
   graph is disconnected and the DP falls back to cross products *)
let gen_wide_case =
  QCheck2.Gen.(
    let* cat = gen_catalog in
    let* nrels = int_range 9 Optimizer.dp_limit in
    let* block = gen_block cat nrels in
    let+ cut = int_range 0 (nrels - 1) in
    let side a = int_of_string (String.sub a 1 (String.length a - 1)) < cut in
    let crosses p =
      match Logical.pred_aliases p with
      | [ a; b ] -> side a <> side b
      | _ -> false
    in
    ( cat,
      {
        block with
        Logical.preds = List.filter (fun p -> not (crosses p)) block.preds;
      } ))

(* blocks past the DP limit, which take the greedy path *)
let gen_greedy_case =
  QCheck2.Gen.(
    let* cat = gen_catalog in
    let* nrels = int_range (Optimizer.dp_limit + 1) 14 in
    let+ block = gen_block cat nrels in
    (cat, block))

(* the blocks of one query over one relation list (the same tables
   under the same aliases) with independently drawn predicates, plus
   sometimes a repeat of the first block.  After the first block the
   shared cache holds the table multiset of every join in its plan,
   and a later join over the same aliases has that multiset too, so
   the table-key check passes and only the signature decides whether
   the join is reused *)
let gen_same_tables_case =
  QCheck2.Gen.(
    let* cat = gen_catalog in
    let* nrels = int_range 2 7 in
    let* first = gen_block cat nrels in
    let* others = list_size (int_range 1 3) (gen_block cat nrels) in
    let+ repeat = bool in
    let others =
      List.map
        (fun (b : Logical.block) ->
          { b with Logical.relations = first.relations })
        others
    in
    (cat, (first :: others) @ if repeat then [ first ] else []))

let print_case (cat, block) =
  Format.asprintf "%a@.%a" Rschema.pp cat Logical.pp_block block

let print_shared_case (cat, blocks) =
  Format.asprintf "%a@.%a" Rschema.pp cat
    (Format.pp_print_list Logical.pp_block)
    blocks

(* ---------- properties ---------- *)

let prop_block_identical =
  QCheck2.Test.make ~name:"optimize_block bit-identical to reference"
    ~count:300 ~print:print_case gen_case (fun (cat, block) ->
      let fast = Optimizer.optimize_block ~params cat block in
      let ref_ = Optimizer_reference.optimize_block ~params cat block in
      same_result "block" fast ref_;
      true)

(* the blocks of one query flow through a shared signature cache; the
   interned signatures must hit and miss exactly like the reference's
   recursive plan_signature strings *)
let prop_shared_identical =
  QCheck2.Test.make ~name:"shared-cache sequence bit-identical to reference"
    ~count:150 ~print:print_shared_case gen_shared_case (fun (cat, blocks) ->
      let shared_fast = Hashtbl.create 16 in
      let shared_ref = Hashtbl.create 16 in
      List.iteri
        (fun i block ->
          let fast = Optimizer.optimize_block ~params ~shared:shared_fast cat block in
          let ref_ =
            Optimizer_reference.optimize_block ~params ~shared:shared_ref cat
              block
          in
          same_result (Printf.sprintf "shared block %d" i) fast ref_)
        blocks;
      true)

let prop_wide_identical =
  QCheck2.Test.make ~name:"optimize_block bit-identical at the DP limit"
    ~count:40 ~print:print_case gen_wide_case (fun (cat, block) ->
      let fast = Optimizer.optimize_block ~params cat block in
      let ref_ = Optimizer_reference.optimize_block ~params cat block in
      same_result "wide block" fast ref_;
      true)

(* plain, then twice through one shared cache: the second pass finds
   the first pass's accesses and joins there *)
let prop_greedy_identical =
  QCheck2.Test.make ~name:"greedy path bit-identical to reference"
    ~count:60 ~print:print_case gen_greedy_case (fun (cat, block) ->
      same_result "greedy block"
        (Optimizer.optimize_block ~params cat block)
        (Optimizer_reference.optimize_block ~params cat block);
      let shared_fast = Hashtbl.create 16 in
      let shared_ref = Hashtbl.create 16 in
      for pass = 1 to 2 do
        same_result
          (Printf.sprintf "greedy block, shared pass %d" pass)
          (Optimizer.optimize_block ~params ~shared:shared_fast cat block)
          (Optimizer_reference.optimize_block ~params ~shared:shared_ref cat
             block)
      done;
      true)

let prop_same_tables_identical =
  QCheck2.Test.make
    ~name:"shared cache over one table multiset bit-identical to reference"
    ~count:100 ~print:print_shared_case gen_same_tables_case
    (fun (cat, blocks) ->
      let shared_fast = Hashtbl.create 16 in
      let shared_ref = Hashtbl.create 16 in
      List.iteri
        (fun i block ->
          let fast = Optimizer.optimize_block ~params ~shared:shared_fast cat block in
          let ref_ =
            Optimizer_reference.optimize_block ~params ~shared:shared_ref cat
              block
          in
          same_result (Printf.sprintf "same-tables block %d" i) fast ref_)
        blocks;
      true)

let prop_query_identical =
  QCheck2.Test.make ~name:"query_cost total bit-identical to reference"
    ~count:100 ~print:print_shared_case gen_shared_case (fun (cat, blocks) ->
      let q = { Logical.qname = "q"; blocks } in
      same_float "query total"
        (Optimizer.query_scalar_cost ~params cat q)
        (Optimizer_reference.query_scalar_cost ~params cat q);
      true)

(* ---------- deterministic greedy fallback ---------- *)

(* a 12-relation chain exceeds dp_limit (10), forcing both
   implementations through their greedy paths *)
let greedy_fallback () =
  let n = 12 in
  let table i =
    let col cname distinct =
      {
        Rschema.cname;
        ctype = Rtype.R_int;
        nullable = false;
        stats =
          {
            Rschema.distinct;
            null_frac = 0.;
            v_min = Some 0;
            v_max = Some 1000;
            avg_width = 8.;
          };
      }
    in
    let card = float_of_int (100 * (i + 1)) in
    {
      Rschema.tname = Printf.sprintf "t%d" i;
      key = "id";
      columns = [ col "id" card; col "a" (card /. 2.); col "b" 10. ];
      fks = [];
      indexed = (if i mod 2 = 0 then [ "id"; "a" ] else [ "id" ]);
      card;
    }
  in
  let cat = { Rschema.tables = List.init n table } in
  let aliases = List.init n (fun i -> Printf.sprintf "r%d" i) in
  let block =
    {
      Logical.relations =
        List.mapi (fun i a -> { Logical.alias = a; table = Printf.sprintf "t%d" i }) aliases;
      preds =
        List.init (n - 1) (fun i ->
            Logical.eq_col
              (Printf.sprintf "r%d" i, "a")
              (Printf.sprintf "r%d" (i + 1), "b"))
        @ [
            {
              Logical.cmp = Logical.C_eq;
              lhs = ("r0", "b");
              rhs = Logical.O_const (Rtype.V_int 3);
            };
          ];
      out = [ ("r0", "a"); (Printf.sprintf "r%d" (n - 1), "b") ];
    }
  in
  let fast = Optimizer.optimize_block ~params cat block in
  let ref_ = Optimizer_reference.optimize_block ~params cat block in
  same_result "greedy chain" fast ref_;
  let shared_fast = Hashtbl.create 16 and shared_ref = Hashtbl.create 16 in
  let fast2 = Optimizer.optimize_block ~params ~shared:shared_fast cat block in
  let ref2 =
    Optimizer_reference.optimize_block ~params ~shared:shared_ref cat block
  in
  same_result "greedy chain, first shared pass" fast2 ref2;
  (* second pass hits the populated caches *)
  let fast3 = Optimizer.optimize_block ~params ~shared:shared_fast cat block in
  let ref3 =
    Optimizer_reference.optimize_block ~params ~shared:shared_ref cat block
  in
  same_result "greedy chain, cached shared pass" fast3 ref3

let suite =
  [
    QCheck_alcotest.to_alcotest prop_block_identical;
    QCheck_alcotest.to_alcotest prop_shared_identical;
    QCheck_alcotest.to_alcotest prop_query_identical;
    QCheck_alcotest.to_alcotest prop_wide_identical;
    QCheck_alcotest.to_alcotest prop_same_tables_identical;
    QCheck_alcotest.to_alcotest prop_greedy_identical;
    Alcotest.test_case "greedy fallback beyond dp_limit" `Quick greedy_fallback;
  ]
