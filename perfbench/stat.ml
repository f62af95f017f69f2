type zipf = float array (* cumulative weights, last = 1.0 *)

let zipf ~s n =
  if n < 1 then invalid_arg "Stat.zipf: empty support";
  let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. x;
        !acc /. total)
      w
  in
  cdf.(n - 1) <- 1.;
  cdf

let zipf_draw cdf rng =
  let u = Random.State.float rng 1. in
  (* first rank whose cumulative weight exceeds u *)
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let rank n p =
  let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  max 1 (min n r)

let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stat.nearest_rank: no samples";
  sorted.(rank n p - 1)

let beyond n p = n - rank n p

let percentile ?(min_beyond = 10) xs p =
  let n = Array.length xs in
  if n = 0 || beyond n p < min_beyond then None
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    Some (nearest_rank a p)
  end

let median xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  nearest_rank a 50.

type span = {
  id : int;
  name : string;
  parent : int;
  req : int;
  t0 : float;
  t1 : float;
}

let self_times spans =
  let children = Hashtbl.create (Array.length spans) in
  Array.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    spans;
  Array.to_list
    (Array.map
       (fun s ->
         let kids =
           List.sort
             (fun a b -> Float.compare a.t0 b.t0)
             (Hashtbl.find_all children s.id)
         in
         (* union of the children's intervals, clipped to the parent *)
         let covered, _ =
           List.fold_left
             (fun (acc, reach) k ->
               let a = Float.max k.t0 (Float.max reach s.t0) in
               let b = Float.min k.t1 s.t1 in
               if b > a then (acc +. (b -. a), b) else (acc, Float.max reach b))
             (0., s.t0) kids
         in
         (s.id, s.t1 -. s.t0 -. covered))
       spans)
