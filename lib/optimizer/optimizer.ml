open Legodb_relational

type result = { plan : Physical.plan; rows : float; cost : Cost.t }

let dp_limit = 10

(* The join-ordering core below is the mask-indexed fast path: alias
   sets are int bitmasks, per-split questions (connectivity, subtree
   widths, subset cardinalities, index-NL options) are answered from
   per-block precomputed arrays, each candidate split is priced as
   plain floats, and only a mask's winning split becomes a plan.  The
   DP walks masks by a single ascending scan.  It must stay
   bit-identical to {!Reference} — same best plan, same cost floats —
   which pins down every float association order: see the comments on
   [extend_width], [cost_split] and [optimize_dp].  The differential
   suite in test/test_optimizer_perf.ml holds the two implementations
   together. *)

(* ------------------------------------------------------------------ *)
(* access-path selection                                               *)
(* ------------------------------------------------------------------ *)

let table_pages params (tbl : Rschema.table) =
  Cost.pages params (tbl.card *. Rschema.row_width tbl)

(* Signature of a base-table access, for common-subexpression sharing
   across the blocks of one query: a table read with identical local
   predicates in a later block of the same query comes from the buffer
   pool (the multi-query-optimizing Volcano of [16] shares such common
   subexpressions), so it costs CPU but no I/O. *)
let access_signature (rel : Logical.relation) filters access =
  let pred_sig (p : Logical.pred) =
    let op =
      match p.cmp with
      | Logical.C_eq -> "="
      | Logical.C_ne -> "<>"
      | Logical.C_lt -> "<"
      | Logical.C_le -> "<="
      | Logical.C_gt -> ">"
      | Logical.C_ge -> ">="
    in
    let operand = function
      | Logical.O_const v -> Legodb_relational.Rtype.value_to_sql v
      | Logical.O_col (_, c) -> "col:" ^ c
    in
    snd p.lhs ^ op ^ operand p.rhs
  in
  let access_sig =
    match access with
    | Physical.Seq_scan -> "scan"
    | Physical.Index_probe { column } -> "probe:" ^ column
  in
  String.concat "|"
    (rel.table :: access_sig :: List.sort String.compare (List.map pred_sig filters))

(* Canonical, alias-free signature of a whole sub-plan, so identical
   join subtrees across blocks (e.g. the actor⋈played⋈director⋈directed
   core repeated per partition) are also recognized as shared.  This
   recursive form is the specification; the DP never calls it per
   candidate — each base entry, greedy step and DP mask interns its
   signature lazily, and a join's signature is assembled in
   O(children) from the children's interned strings (see
   [join_signature]). *)
let rec plan_signature plan =
  match plan with
  | Physical.Scan { rel; access; filters } ->
      access_signature rel filters access
  | Physical.Join { left; right; conds; extra; _ } ->
      let table_of =
        let map =
          List.map
            (fun (r : Logical.relation) -> (r.alias, r.table))
            (Physical.relations plan)
        in
        fun alias -> Option.value ~default:alias (List.assoc_opt alias map)
      in
      let cond_sig ((la, lc), (ra, rc)) =
        let a = table_of la ^ "." ^ lc and b = table_of ra ^ "." ^ rc in
        if a <= b then a ^ "=" ^ b else b ^ "=" ^ a
      in
      let extra_sig (p : Logical.pred) =
        table_of (fst p.lhs) ^ "." ^ snd p.lhs
      in
      let subs = List.sort compare [ plan_signature left; plan_signature right ] in
      "join("
      ^ String.concat ";" subs
      ^ "|"
      ^ String.concat ","
          (List.sort compare (List.map cond_sig conds @ List.map extra_sig extra))
      ^ ")"

(* The multiset of tables under a join, as a cache key: equal
   signatures imply equal table multisets, so a join whose key is not
   in the shared cache cannot have its signature there either, and the
   DP need not build one.  [iter] must present the table names in
   [String.compare] order; the key is built in [buf].  The NUL before
   each name keeps keys apart from signatures, which begin with a
   table name or "join(". *)
let table_key buf iter =
  Buffer.clear buf;
  iter (fun name ->
      Buffer.add_char buf '\000';
      Buffer.add_string buf name);
  Buffer.contents buf

let register_accesses shared plan =
  let buf = Buffer.create 64 in
  let rec go plan =
    Hashtbl.replace shared (plan_signature plan) ();
    match plan with
    | Physical.Scan _ -> ()
    | Physical.Join { left; right; _ } ->
        let tables =
          List.sort String.compare
            (List.map
               (fun (r : Logical.relation) -> r.table)
               (Physical.relations plan))
        in
        Hashtbl.replace shared (table_key buf (fun f -> List.iter f tables)) ();
        go left;
        go right
  in
  go plan

(* ------------------------------------------------------------------ *)
(* per-block context: aliases as integer ids, preds as bitmasks        *)
(* ------------------------------------------------------------------ *)

let popcount m =
  let rec go m n = if m = 0 then n else go (m lsr 1) (n + (m land 1)) in
  go m 0

(* index of the highest set bit; [m > 0] *)
let top_bit m =
  let rec go m n = if m <= 1 then n else go (m lsr 1) (n + 1) in
  go m 0

(* Everything the inner DP loop consults per split, computed once per
   block: an alias's id is its position in the relation list, each
   predicate carries the bitmask of the aliases it mentions (its
   left/right bit pair for a join predicate) and its memoized
   selectivity, and each alias its clamped cardinality and carried
   width.  With these, connectivity and spanning-predicate selection
   are O(1) bit tests per predicate instead of alias-list membership
   walks. *)
type ctx = {
  c_params : Cost.params;
  c_env : Estimate.env;
  c_block : Logical.block;
  c_names : string array;  (* alias by id *)
  c_tnames : string array;  (* logical table name by id, for signatures *)
  c_by_table : int array;  (* alias ids in [table_key] order *)
  c_preds : Logical.pred array;  (* block.preds, in block order *)
  c_pmask : int array;  (* alias bitmask of each pred *)
  c_pjoin : bool array;  (* pred spans two distinct aliases *)
  c_psel : float array;  (* memoized selectivity of each pred *)
  c_card : float array;  (* max(row_floor, card) per alias *)
  c_carry : float array;  (* per-alias carried width (see extend_width) *)
}

let context params env (block : Logical.block) =
  let names =
    Array.of_list
      (List.map (fun (r : Logical.relation) -> r.alias) block.relations)
  in
  let tnames =
    Array.of_list
      (List.map (fun (r : Logical.relation) -> r.table) block.relations)
  in
  let n = Array.length names in
  let by_table = Array.init n Fun.id in
  Array.stable_sort (fun a b -> String.compare tnames.(a) tnames.(b)) by_table;
  let preds = Array.of_list block.preds in
  let pmask =
    Array.map
      (fun p ->
        List.fold_left
          (fun m a -> m lor (1 lsl Estimate.alias_id env a))
          0 (Logical.pred_aliases p))
      preds
  in
  let pjoin = Array.map (fun pm -> popcount pm = 2) pmask in
  let psel = Array.map (Estimate.pred_selectivity env) preds in
  let card =
    Array.init n (fun i ->
        Float.max Estimate.row_floor (Estimate.table_at env i).Rschema.card)
  in
  (* Width contributed by one alias to an intermediate result: plans
     project eagerly, so a tuple flowing above a join carries only the
     columns the block still needs (projection columns and predicate
     columns). *)
  let carry =
    Array.init n (fun i ->
        let a = names.(i) in
        let tbl = Estimate.table_at env i in
        let needed =
          List.sort_uniq compare
            (List.filter_map
               (fun (al, c) -> if String.equal al a then Some c else None)
               block.out
            @ List.concat_map
                (fun (p : Logical.pred) ->
                  (if String.equal (fst p.lhs) a then [ snd p.lhs ] else [])
                  @
                  match p.rhs with
                  | Logical.O_col (ra, rc) when String.equal ra a -> [ rc ]
                  | _ -> [])
                block.preds)
        in
        List.fold_left
          (fun acc c ->
            match Rschema.find_column tbl c with
            | Some col -> acc +. col.Rschema.stats.avg_width
            | None -> acc)
          0. needed)
  in
  {
    c_params = params;
    c_env = env;
    c_block = block;
    c_names = names;
    c_tnames = tnames;
    c_by_table = by_table;
    c_preds = preds;
    c_pmask = pmask;
    c_pjoin = pjoin;
    c_psel = psel;
    c_card = card;
    c_carry = carry;
  }

(* ------------------------------------------------------------------ *)
(* join costing                                                        *)
(* ------------------------------------------------------------------ *)

type entry = {
  e_plan : Physical.plan;
  e_rows : float;
  e_cost : Cost.t;
  e_mask : int;  (* the subtree's aliases, as a bitmask *)
  e_width : float;  (* subtree width, fold-accumulated in plan order *)
  e_sig : string Lazy.t;
      (* interned signature; forced only when a join over this subtree
         may be in the shared cache (see [table_key]) *)
}

(* Subtree width of [w0]'s plan extended by [plan]'s relations.  The
   reference folds [fun w a -> w +. carry a +. 8.] over the joined
   plan's aliases in plan order; since a join's relation list is
   [relations left @ relations right], continuing the fold from the
   left entry's stored width over the right side's relations
   reproduces the reference float exactly (fold over a concatenation
   is the fold over the suffix started from the fold over the
   prefix). *)
let extend_width ctx w0 plan =
  List.fold_left
    (fun w (r : Logical.relation) ->
      w +. ctx.c_carry.(Estimate.alias_id ctx.c_env r.alias) +. 8.)
    w0 (Physical.relations plan)

(* spanning predicates between two disjoint alias masks, in block
   order: a join predicate's own mask is its (left-bit, right-bit)
   pair, so membership is two bit tests *)
let spanning_preds ctx lmask rmask =
  let out = ref [] in
  for i = Array.length ctx.c_preds - 1 downto 0 do
    if
      ctx.c_pjoin.(i)
      && ctx.c_pmask.(i) land lmask <> 0
      && ctx.c_pmask.(i) land rmask <> 0
    then out := ctx.c_preds.(i) :: !out
  done;
  !out

let split_conds ctx lmask preds =
  (* equality column pairs oriented left-first; everything else extra *)
  List.fold_left
    (fun (conds, extra) (p : Logical.pred) ->
      match (p.cmp, p.rhs) with
      | Logical.C_eq, Logical.O_col rc ->
          if lmask land (1 lsl Estimate.alias_id ctx.c_env (fst p.lhs)) <> 0
          then ((p.lhs, rc) :: conds, extra)
          else ((rc, p.lhs) :: conds, extra)
      | _ -> (conds, p :: extra))
    ([], []) preds

(* A join's signature assembled in O(children) from the children's
   interned signatures — string-identical to [plan_signature] of the
   corresponding [Physical.Join], because a join signature depends
   only on the two child signatures and the (alias-resolved) conds
   and extra predicates. *)
let join_signature ctx lsig rsig conds extra =
  let table_of a = ctx.c_tnames.(Estimate.alias_id ctx.c_env a) in
  let cond_sig ((la, lc), (ra, rc)) =
    let a = table_of la ^ "." ^ lc and b = table_of ra ^ "." ^ rc in
    if a <= b then a ^ "=" ^ b else b ^ "=" ^ a
  in
  let extra_sig (p : Logical.pred) = table_of (fst p.lhs) ^ "." ^ snd p.lhs in
  let subs = List.sort compare [ lsig; rsig ] in
  "join("
  ^ String.concat ";" subs
  ^ "|"
  ^ String.concat ","
      (List.sort compare (List.map cond_sig conds @ List.map extra_sig extra))
  ^ ")"

let access_plan ?shared ctx (rel : Logical.relation) =
  let params = ctx.c_params and env = ctx.c_env in
  let id = Estimate.alias_id env rel.alias in
  let tbl = Estimate.table_at env id in
  let filters = Logical.local_preds ctx.c_block.preds rel.alias in
  let rows = Estimate.base_rows env rel.alias in
  let width = Rschema.row_width tbl in
  let tpages = table_pages params tbl in
  let buffered access cpu =
    match shared with
    | Some cache when Hashtbl.mem cache (access_signature rel filters access) ->
        Some { Cost.seeks = 0.; pages_read = 0.; pages_written = 0.; cpu }
    | _ -> None
  in
  let seq =
    let cost =
      match buffered Physical.Seq_scan tbl.card with
      | Some c -> c
      | None ->
          { Cost.seeks = 1.; pages_read = tpages; pages_written = 0.; cpu = tbl.card }
    in
    (Physical.Scan { rel; access = Physical.Seq_scan; filters }, cost)
  in
  let probes =
    List.filter_map
      (fun (p : Logical.pred) ->
        match (p.cmp, p.rhs) with
        | Logical.C_eq, Logical.O_const _
          when Rschema.has_index tbl (snd p.lhs) ->
            let matches =
              Float.max 1. (tbl.card *. Estimate.pred_selectivity env p)
            in
            let clustered = String.equal (snd p.lhs) tbl.key in
            let access = Physical.Index_probe { column = snd p.lhs } in
            let cost =
              match buffered access matches with
              | Some c -> c
              | None ->
                  if clustered then
                    {
                      Cost.seeks = 3.;
                      pages_read = Cost.pages params (matches *. width);
                      pages_written = 0.;
                      cpu = matches;
                    }
                  else
                    {
                      Cost.seeks = 3. +. Float.min matches tpages;
                      pages_read = Float.min matches tpages;
                      pages_written = 0.;
                      cpu = matches;
                    }
            in
            Some
              ( Physical.Scan
                  {
                    rel;
                    access = Physical.Index_probe { column = snd p.lhs };
                    filters;
                  },
                cost )
        | _ -> None)
      filters
  in
  let plan, cost =
    List.fold_left
      (fun (bp, bc) (p, c) ->
        if Cost.total params c < Cost.total params bc then (p, c) else (bp, bc))
      seq probes
  in
  {
    e_plan = plan;
    e_rows = rows;
    e_cost = cost;
    e_mask = 1 lsl id;
    e_width = extend_width ctx 0. plan;
    e_sig = lazy (plan_signature plan);
  }

(* Every join's right input is a single base relation, in the
   left-deep DP and in the greedy path alike, so what a split needs of
   its right side is computed once per alias and block. *)
type inl = {
  i_other : int;  (* bit of the alias the join predicate pairs it with *)
  i_jm : Physical.join_method;  (* [Index_nl] on the indexed column *)
  i_probe : Cost.t;  (* cost of one index probe *)
}

type right = {
  r_entry : entry;  (* the alias's access plan *)
  r_build : float;  (* hash-join build pages *)
  r_nbrs : int;  (* aliases sharing a join predicate with it *)
  r_inl : inl array;
      (* index-NL options in the order a split meets them: the
         equality join predicates in reverse block order (the order
         [split_conds] leaves its conds in) whose column on this side
         is indexed.  A split takes the first whose other alias is on
         its left. *)
}

(* tuples fetched per probe are governed by the join key's distinct
   count — local filters are applied only after the fetch *)
let probe_cost params (tbl : Rschema.table) rcol =
  let m =
    tbl.card /. Float.max 1. (Rschema.column tbl rcol).Rschema.stats.distinct
  in
  if String.equal rcol tbl.key then
    {
      Cost.seeks = 1.;
      pages_read =
        Float.max 1.
          (ceil (m *. Rschema.row_width tbl /. params.Cost.page_size));
      pages_written = 0.;
      cpu = 1. +. m;
    }
  else
    {
      Cost.seeks = 1. +. Float.max 0. (m -. 1.);
      pages_read = Float.max 1. m;
      pages_written = 0.;
      cpu = 1. +. m;
    }

let right_sides ctx (base : entry array) =
  let params = ctx.c_params in
  Array.mapi
    (fun id (e : entry) ->
      let bit = 1 lsl id in
      let tbl = Estimate.table_at ctx.c_env id in
      let nbrs = ref 0 and inl = ref [] in
      Array.iteri
        (fun i pm ->
          if ctx.c_pjoin.(i) && pm land bit <> 0 then begin
            let other = pm land lnot bit in
            nbrs := !nbrs lor other;
            let p = ctx.c_preds.(i) in
            match (p.Logical.cmp, p.rhs) with
            | Logical.C_eq, Logical.O_col (_, rc) ->
                let col =
                  if Estimate.alias_id ctx.c_env (fst p.lhs) = id then snd p.lhs
                  else rc
                in
                if Rschema.has_index tbl col then
                  inl :=
                    {
                      i_other = other;
                      i_jm = Physical.Index_nl { column = col };
                      i_probe = probe_cost params tbl col;
                    }
                    :: !inl
            | _ -> ()
          end)
        ctx.c_pmask;
      {
        r_entry = e;
        r_build = Cost.pages params (e.e_rows *. e.e_width);
        r_nbrs = !nbrs;
        r_inl = Array.of_list !inl;
      })
    base

let rec first_inl (opts : inl array) lmask k =
  if k >= Array.length opts then -1
  else if opts.(k).i_other land lmask <> 0 then k
  else first_inl opts lmask (k + 1)

(* The split being costed and the best one seen so far, for one DP mask
   or one greedy step.  Floats live in an all-float record, which OCaml
   stores flat, so costing a split allocates nothing. *)
type scalars = {
  (* the left input of the split being costed *)
  mutable l_seeks : float;
  mutable l_pages_read : float;
  mutable l_pages_written : float;
  mutable l_cpu : float;
  mutable l_rows : float;
  mutable l_width : float;
  mutable out_rows : float;  (* output rows of the split being costed *)
  (* the best candidate so far *)
  mutable b_total : float;
  mutable b_seeks : float;
  mutable b_pages_read : float;
  mutable b_pages_written : float;
  mutable b_cpu : float;
  mutable b_rows : float;
}

type best = {
  s : scalars;
  mutable found : bool;
  mutable b_right : int;  (* alias id of the best split's right input *)
  mutable b_jm : Physical.join_method;
}

let new_best () =
  {
    s =
      {
        l_seeks = 0.;
        l_pages_read = 0.;
        l_pages_written = 0.;
        l_cpu = 0.;
        l_rows = 0.;
        l_width = 0.;
        out_rows = 0.;
        b_total = 0.;
        b_seeks = 0.;
        b_pages_read = 0.;
        b_pages_written = 0.;
        b_cpu = 0.;
        b_rows = 0.;
      };
    found = false;
    b_right = 0;
    b_jm = Physical.Nl_join;
  }

let load_entry st (e : entry) =
  let s = st.s in
  s.l_seeks <- e.e_cost.seeks;
  s.l_pages_read <- e.e_cost.pages_read;
  s.l_pages_written <- e.e_cost.pages_written;
  s.l_cpu <- e.e_cost.cpu;
  s.l_rows <- e.e_rows;
  s.l_width <- e.e_width

(* [Cost.total] of four unboxed components, in its association
   order.  It is repeated here rather than called: across modules the
   call is not inlined and would box all five floats per candidate. *)
let[@inline] weigh (p : Cost.params) seeks pages_read pages_written cpu =
  (p.seek_weight *. seeks)
  +. (p.read_weight *. pages_read)
  +. (p.write_weight *. pages_written)
  +. (p.cpu_weight *. cpu)

(* Keeps the first minimal candidate, like the reference DP: a later
   candidate replaces the best only if the best is not at most its
   cost.  The reference's greedy path replaces on a strictly smaller
   cost instead, which selects the same candidate unless a total is
   NaN. *)
let[@inline] offer params st r jm seeks pages_read pages_written cpu =
  let t = weigh params seeks pages_read pages_written cpu in
  let s = st.s in
  if (not st.found) || not (s.b_total <= t) then begin
    st.found <- true;
    st.b_right <- r;
    st.b_jm <- jm;
    s.b_total <- t;
    s.b_seeks <- seeks;
    s.b_pages_read <- pages_read;
    s.b_pages_written <- pages_written;
    s.b_cpu <- cpu;
    s.b_rows <- s.out_rows
  end

let split_parts ctx lmask r =
  split_conds ctx lmask (spanning_preds ctx lmask (1 lsl r))

let no_hit (_ : int) = false

(* Prices every join of the left input loaded into [st] (alias mask
   [lmask]) with base relation [r], and offers each method to [st] in
   the reference's candidate order: nested loops, index nested loops,
   hash join, then — when [hit r] says an earlier block of the same
   query already computed this join — the hash join reused from the
   buffer pool.  Each field is the reference's [Cost.add]/[Cost.scale]
   chain written out over floats in the same association order, [+.
   0.] terms included (they decide the sign of a zero). *)
let cost_split ctx rights st lmask r hit =
  let params = ctx.c_params and s = st.s in
  let rs = rights.(r) in
  let rc = rs.r_entry.e_cost and rrows = rs.r_entry.e_rows in
  let lrows = s.l_rows and rows_out = s.out_rows in
  (* naive nested loops: the right input rescanned per left row *)
  offer params st r Physical.Nl_join
    (s.l_seeks +. ((lrows *. rc.seeks) +. 0.))
    (s.l_pages_read +. ((lrows *. rc.pages_read) +. 0.))
    (s.l_pages_written +. ((lrows *. rc.pages_written) +. 0.))
    (s.l_cpu +. ((lrows *. rc.cpu) +. (lrows *. rrows)));
  (* index nested loops: one index probe per left row *)
  (let k = first_inl rs.r_inl lmask 0 in
   if k >= 0 then begin
     let o = rs.r_inl.(k) in
     let pp = o.i_probe in
     offer params st r o.i_jm
       (s.l_seeks +. ((lrows *. pp.seeks) +. 0.))
       (s.l_pages_read +. ((lrows *. pp.pages_read) +. 0.))
       (s.l_pages_written +. ((lrows *. pp.pages_written) +. 0.))
       (s.l_cpu +. ((lrows *. pp.cpu) +. rows_out))
   end);
  (* hash join: build the right input, probe with the left; both
     spill when the build side exceeds memory *)
  let spill = rs.r_build > params.Cost.memory_pages in
  let spill_seeks = if spill then 2. else 0. in
  let spill_pages =
    if spill then rs.r_build +. Cost.pages params (lrows *. s.l_width) else 0.
  in
  offer params st r Physical.Hash_join
    (s.l_seeks +. rc.seeks +. (spill_seeks +. 0.))
    (s.l_pages_read +. rc.pages_read +. (spill_pages +. 0.))
    (s.l_pages_written +. rc.pages_written +. (spill_pages +. 0.))
    (s.l_cpu +. rc.cpu +. (0. +. (lrows +. rrows +. rows_out)));
  if hit r then offer params st r Physical.Hash_join 0. 0. 0. rows_out

(* the shared cache, when a join over [mask]'s aliases may be in it;
   [buf] is scratch space for the mask's [table_key] *)
let probe_for ctx buf shared mask =
  match shared with
  | Some cache as probe ->
      let key =
        table_key buf (fun f ->
            Array.iter
              (fun i -> if mask land (1 lsl i) <> 0 then f ctx.c_tnames.(i))
              ctx.c_by_table)
      in
      if Hashtbl.mem cache key then probe else None
  | None -> None

(* ------------------------------------------------------------------ *)
(* join ordering                                                       *)
(* ------------------------------------------------------------------ *)

(* The DP's winners, indexed by alias mask: the cost fields, rows and
   width as flat float arrays, and the split as its right alias and
   join method.  A mask's left input is the mask minus its right
   alias, so the winning plan is rebuilt from these only once, for the
   full mask; signatures are built (and memoized) only for masks the
   shared cache may hold. *)
type dp = {
  d_seeks : float array;
  d_pages_read : float array;
  d_pages_written : float array;
  d_cpu : float array;
  d_rows : float array;
  d_width : float array;
  d_right : int array;
  d_jm : Physical.join_method array;
  d_sig : string array;  (* "" until built; no signature is empty *)
}

(* The selectivity half of [Estimate.subset_rows] for the aliases in
   [mask]: selectivities multiplied in block pred order, exactly like
   the reference's fold over the predicates whose aliases all fall
   inside the subset. *)
let selectivity ctx mask =
  let s = ref 1. in
  for i = 0 to Array.length ctx.c_pmask - 1 do
    let pm = ctx.c_pmask.(i) in
    if pm land mask = pm then s := !s *. ctx.c_psel.(i)
  done;
  !s

let optimize_dp ?shared ctx rights =
  let n = Array.length ctx.c_names in
  let full = (1 lsl n) - 1 in
  let size = full + 1 in
  let dp =
    {
      d_seeks = Array.make size 0.;
      d_pages_read = Array.make size 0.;
      d_pages_written = Array.make size 0.;
      d_cpu = Array.make size 0.;
      d_rows = Array.make size 0.;
      d_width = Array.make size 0.;
      d_right = Array.make size 0;
      d_jm = Array.make size Physical.Nl_join;
      d_sig = (if Option.is_some shared then Array.make size "" else [||]);
    }
  in
  Array.iteri
    (fun r rs ->
      let m = 1 lsl r and e = rs.r_entry in
      dp.d_seeks.(m) <- e.e_cost.seeks;
      dp.d_pages_read.(m) <- e.e_cost.pages_read;
      dp.d_pages_written.(m) <- e.e_cost.pages_written;
      dp.d_cpu.(m) <- e.e_cost.cpu;
      dp.d_rows.(m) <- e.e_rows;
      dp.d_width.(m) <- e.e_width;
      dp.d_right.(m) <- r)
    rights;
  let base_sig r = Lazy.force rights.(r).r_entry.e_sig in
  let rec sig_of m =
    let r = dp.d_right.(m) in
    if m = 1 lsl r then base_sig r
    else begin
      if String.equal dp.d_sig.(m) "" then begin
        let l = m land lnot (1 lsl r) in
        let conds, extra = split_parts ctx l r in
        dp.d_sig.(m) <- join_signature ctx (sig_of l) (base_sig r) conds extra
      end;
      dp.d_sig.(m)
    end
  in
  (* memoized Estimate.subset_rows, split into its two folds.  The
     clamped-card product over a mask's aliases in block order equals
     the product over the mask minus its top bit extended by the top
     alias (a left fold over a list extends over its last element), so
     one ascending pass fills the whole array. *)
  let cards = Array.make size 1. in
  for m = 1 to full do
    let top = top_bit m in
    cards.(m) <- cards.(m land lnot (1 lsl top)) *. ctx.c_card.(top)
  done;
  let st = new_best () and buf = Buffer.create 64 in
  (* left-deep enumeration: the right input of every join is a single
     base relation, which is where index-nested-loops applies anyway.
     Every strict submask of [mask] is numerically smaller, so a
     single ascending scan visits masks in a valid DP order — the
     popcount-sorted work list of the reference, without materializing
     or sorting 2^n masks — and every nonempty submask already has its
     winner.  Splits are tried in ascending right-alias order and the
     first minimal candidate wins, as in the reference. *)
  for mask = 1 to full do
    if popcount mask >= 2 then begin
      st.found <- false;
      st.s.out_rows <-
        Float.max Estimate.row_floor (cards.(mask) *. selectivity ctx mask);
      let hit =
        match probe_for ctx buf shared mask with
        | Some cache ->
            fun r ->
              let l = mask land lnot (1 lsl r) in
              let conds, extra = split_parts ctx l r in
              Hashtbl.mem cache
                (join_signature ctx (sig_of l) (base_sig r) conds extra)
        | None -> no_hit
      in
      let try_split require_connected =
        for r = 0 to n - 1 do
          let l = mask land lnot (1 lsl r) in
          if
            l <> mask
            && ((not require_connected) || rights.(r).r_nbrs land l <> 0)
          then begin
            let s = st.s in
            s.l_seeks <- dp.d_seeks.(l);
            s.l_pages_read <- dp.d_pages_read.(l);
            s.l_pages_written <- dp.d_pages_written.(l);
            s.l_cpu <- dp.d_cpu.(l);
            s.l_rows <- dp.d_rows.(l);
            s.l_width <- dp.d_width.(l);
            cost_split ctx rights st l r hit
          end
        done
      in
      try_split true;
      if not st.found then try_split false;
      let s = st.s and r = st.b_right in
      dp.d_seeks.(mask) <- s.b_seeks;
      dp.d_pages_read.(mask) <- s.b_pages_read;
      dp.d_pages_written.(mask) <- s.b_pages_written;
      dp.d_cpu.(mask) <- s.b_cpu;
      dp.d_rows.(mask) <- s.b_rows;
      (* [extend_width] over the right input's single relation *)
      dp.d_width.(mask) <-
        dp.d_width.(mask land lnot (1 lsl r)) +. ctx.c_carry.(r) +. 8.;
      dp.d_right.(mask) <- r;
      dp.d_jm.(mask) <- st.b_jm
    end
  done;
  let rec plan_of m =
    let r = dp.d_right.(m) in
    let right = rights.(r).r_entry.e_plan in
    if m = 1 lsl r then right
    else
      let l = m land lnot (1 lsl r) in
      let conds, extra = split_parts ctx l r in
      Physical.Join { jm = dp.d_jm.(m); left = plan_of l; right; conds; extra }
  in
  ( plan_of full,
    dp.d_rows.(full),
    {
      Cost.seeks = dp.d_seeks.(full);
      pages_read = dp.d_pages_read.(full);
      pages_written = dp.d_pages_written.(full);
      cpu = dp.d_cpu.(full);
    } )

let optimize_greedy ?shared ctx rights =
  (* left-deep: start from the cheapest entry, repeatedly add the
     relation that yields the cheapest join, preferring connected ones.
     The reference's [Estimate.subset_rows] multiplies the clamped
     cardinalities of the accumulator's aliases in plan order, not
     block order, so [cards] carries that product along the plan;
     the selectivity half is the DP's. *)
  let params = ctx.c_params in
  let total r = Cost.total params rights.(r).r_entry.e_cost in
  let by_cost =
    List.sort
      (fun a b -> Float.compare (total a) (total b))
      (List.init (Array.length rights) Fun.id)
  in
  let st = new_best () and buf = Buffer.create 64 in
  let rec go (acc : entry) cards remaining =
    match remaining with
    | [] -> acc
    | _ ->
        let pool =
          match
            List.filter
              (fun r -> rights.(r).r_nbrs land acc.e_mask <> 0)
              remaining
          with
          | [] -> remaining
          | connected -> connected
        in
        st.found <- false;
        load_entry st acc;
        List.iter
          (fun r ->
            let mask = acc.e_mask lor (1 lsl r) in
            st.s.out_rows <-
              Float.max Estimate.row_floor
                (cards *. ctx.c_card.(r) *. selectivity ctx mask);
            let hit =
              match probe_for ctx buf shared mask with
              | Some cache ->
                  fun r ->
                    let conds, extra = split_parts ctx acc.e_mask r in
                    Hashtbl.mem cache
                      (join_signature ctx (Lazy.force acc.e_sig)
                         (Lazy.force rights.(r).r_entry.e_sig)
                         conds extra)
              | None -> no_hit
            in
            cost_split ctx rights st acc.e_mask r hit)
          pool;
        (* the plan and entry are built for the step's winner only *)
        let r = st.b_right and s = st.s in
        let re = rights.(r).r_entry in
        let conds, extra = split_parts ctx acc.e_mask r in
        let next =
          {
            e_plan =
              Physical.Join
                {
                  jm = st.b_jm;
                  left = acc.e_plan;
                  right = re.e_plan;
                  conds;
                  extra;
                };
            e_rows = s.b_rows;
            e_cost =
              {
                Cost.seeks = s.b_seeks;
                pages_read = s.b_pages_read;
                pages_written = s.b_pages_written;
                cpu = s.b_cpu;
              };
            e_mask = acc.e_mask lor re.e_mask;
            e_width = extend_width ctx acc.e_width re.e_plan;
            e_sig =
              lazy
                (join_signature ctx (Lazy.force acc.e_sig) (Lazy.force re.e_sig)
                   conds extra);
          }
        in
        go next
          (cards *. ctx.c_card.(r))
          (List.filter (fun x -> x <> r) remaining)
  in
  match by_cost with
  | [] -> invalid_arg "optimize_greedy: empty block"
  | first :: rest ->
      let e = go rights.(first).r_entry ctx.c_card.(first) rest in
      (e.e_plan, e.e_rows, e.e_cost)

let optimize_block ?(params = Cost.default_params) ?shared cat
    (block : Logical.block) =
  if block.relations = [] then invalid_arg "optimize_block: no relations";
  (match Logical.block_wellformed cat block with
  | Ok () -> ()
  | Error es ->
      invalid_arg ("optimize_block: " ^ String.concat "; " es));
  let env = Estimate.env cat block in
  let ctx = context params env block in
  let aliases = List.map (fun (r : Logical.relation) -> r.alias) block.relations in
  let base =
    Array.of_list (List.map (access_plan ?shared ctx) block.relations)
  in
  let plan, rows, cost =
    match Array.length base with
    | 1 -> (base.(0).e_plan, base.(0).e_rows, base.(0).e_cost)
    | n when n <= dp_limit -> optimize_dp ?shared ctx (right_sides ctx base)
    | _ -> optimize_greedy ?shared ctx (right_sides ctx base)
  in
  (* result output: write the projected rows out *)
  let out_width = Estimate.output_width env block.out aliases in
  let output_cost =
    {
      Cost.seeks = 0.;
      pages_read = 0.;
      pages_written = Cost.pages params (rows *. out_width);
      cpu = rows;
    }
  in
  (match shared with Some cache -> register_accesses cache plan | None -> ());
  { plan; rows; cost = Cost.add cost output_cost }

let query_cost ?(params = Cost.default_params) cat (q : Logical.query) =
  (* the blocks of one query share base-table accesses (outer-union
     decomposition reads the same tables repeatedly) *)
  let shared = Hashtbl.create 16 in
  let results = List.map (optimize_block ~params ~shared cat) q.blocks in
  let total =
    List.fold_left (fun t r -> t +. Cost.total params r.cost) 0. results
  in
  (results, total)

let query_scalar_cost ?params cat q = snd (query_cost ?params cat q)

let workload_cost ?params cat workload =
  List.fold_left
    (fun acc (q, weight) -> acc +. (weight *. query_scalar_cost ?params cat q))
    0. workload

(* ------------------------------------------------------------------ *)
(* write costing                                                       *)
(* ------------------------------------------------------------------ *)

let write_cost ?(params = Cost.default_params) cat (u : Logical.update) =
  let shared = Hashtbl.create 8 in
  List.fold_left
    (fun acc (w : Logical.write) ->
      let tbl = Rschema.table cat w.Logical.w_table in
      let rows, locate_cost =
        match w.Logical.w_locate with
        | Some block ->
            let r = optimize_block ~params ~shared cat block in
            (r.rows *. w.Logical.w_per_row, Cost.total params r.cost)
        | None -> (w.Logical.w_per_row, 0.)
      in
      let width = Rschema.row_width tbl in
      let indexes = float_of_int (List.length tbl.Rschema.indexed) in
      let per_row =
        match w.Logical.w_kind with
        | Logical.W_insert | Logical.W_delete ->
            (* the row's page plus maintenance of every index *)
            {
              Cost.seeks = 1. +. indexes;
              pages_read = 0.;
              pages_written = Float.max 1. (width /. params.Cost.page_size);
              cpu = 1. +. indexes;
            }
        | Logical.W_update ->
            (* rewrite the row in place; indexes on the changed column
               only — approximated as one *)
            {
              Cost.seeks = 2.;
              pages_read = 0.;
              pages_written = 1.;
              cpu = 2.;
            }
      in
      acc +. locate_cost +. Cost.total params (Cost.scale rows per_row))
    0. u.Logical.writes

let updates_cost ?params cat updates =
  List.fold_left
    (fun acc (u, weight) -> acc +. (weight *. write_cost ?params cat u))
    0. updates

let mixed_workload_cost ?params cat ~queries ~updates =
  workload_cost ?params cat queries +. updates_cost ?params cat updates
