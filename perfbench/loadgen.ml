(* The load generator: one thread, a handful of nonblocking TCP
   connections to the front door, and a select loop.  Requests are
   pipelined; the server answers each connection in request order, so
   responses are matched to requests positionally.  Every response
   frame is CRC-checked by the protocol's own extractor. *)

open Legodb

type kind = Read | Write | Publish

type op = {
  kind : kind;
  text : string;  (** query text; unused for writes and publishes *)
  keep : bool;  (** keep the payload for the correctness sample *)
  mutable due : float;  (** when the op was scheduled to be sent *)
  mutable sent : float;
  mutable recv : float;
  mutable ok : bool;
  mutable payload : string;  (** kept payload, or the error text *)
}

let op ?(keep = false) kind text =
  { kind; text; keep; due = 0.; sent = 0.; recv = 0.; ok = false; payload = "" }

type conn = {
  fd : Unix.file_descr;
  inb : Iobuf.t;
  outb : Iobuf.t;
  pending : op Queue.t;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  { fd; inb = Iobuf.create 65536; outb = Iobuf.create 65536; pending = Queue.create () }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let frame_of o =
  match o.kind with
  | Read -> Net.encode_request (Net.Query o.text)
  | Write -> Net.encode_request (Net.Append o.text)
  | Publish -> Net.encode_request Net.Publish

let submit ?frame c o t =
  o.sent <- t;
  Iobuf.add_string c.outb (match frame with Some f -> f | None -> frame_of o);
  Queue.push o c.pending

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* a response is good when its payload has the tag its request expects;
   anything else (an error reply, a mismatched tag) fails the op *)
let settle o payload t =
  o.recv <- t;
  let tag =
    match o.kind with Read -> "rows\n" | Write -> "acked\n" | Publish -> "published\n"
  in
  o.ok <- has_prefix tag payload;
  if o.keep || not o.ok then o.payload <- payload

exception Broken of string

let flush_out c =
  if not (Iobuf.is_empty c.outb) then
    try ignore (Iobuf.write_to c.outb c.fd)
    with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

(* One round: write what is buffered, wait at most [timeout] for input,
   and settle every complete response frame. *)
let pump conns ~timeout =
  Array.iter flush_out conns;
  let rd =
    Array.fold_left
      (fun acc c -> if Queue.is_empty c.pending then acc else c.fd :: acc)
      [] conns
  in
  let wr =
    Array.fold_left
      (fun acc c -> if Iobuf.is_empty c.outb then acc else c.fd :: acc)
      [] conns
  in
  let ready, _, _ =
    try Unix.select rd wr [] (Float.max 0. timeout)
    with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
  in
  if ready <> [] then begin
    let t = Unix.gettimeofday () in
    Array.iter
      (fun c ->
        if List.memq c.fd ready then begin
          match Iobuf.read_from c.inb c.fd with
          | 0 -> raise (Broken "server closed a connection")
          | _ ->
              let continue = ref true in
              while !continue do
                match Net.extract_frame c.inb with
                | `Partial -> continue := false
                | `Broken m -> raise (Broken m)
                | `Frame payload -> (
                    match Queue.take_opt c.pending with
                    | None -> raise (Broken "response to no request")
                    | Some o -> settle o payload t)
              done
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
        end)
      conns
  end

let outstanding conns =
  Array.fold_left (fun a c -> a + Queue.length c.pending) 0 conns

(* Closed loop in corked rounds: each round gives every connection
   [depth] requests in one write, and the next round starts only when
   the whole round is answered.  The server then reads whole rounds, so
   how its ticks batch the queries does not depend on how promptly the
   generator runs.  Frames are encoded before the clock starts; returns
   the wall time from the first send to the last response. *)
let rounds conns ~depth ops ~deadline =
  let n = Array.length ops in
  let frames = Array.map frame_of ops in
  let next = ref 0 in
  let t0 = Unix.gettimeofday () in
  while !next < n do
    let t = Unix.gettimeofday () in
    Array.iter
      (fun c ->
        for _ = 1 to depth do
          if !next < n then begin
            let o = ops.(!next) in
            o.due <- t;
            submit ~frame:frames.(!next) c o t;
            incr next
          end
        done)
      conns;
    while outstanding conns > 0 do
      if Unix.gettimeofday () > deadline then raise (Broken "closed loop timed out");
      pump conns ~timeout:0.05
    done
  done;
  Unix.gettimeofday () -. t0

(* Open loop: [schedule.(i)] = (connection, op) with [op.due] set to
   the op's offset in seconds from the start, in due order.  Frames are
   encoded first; the clock starts after that, so building the stream
   never makes an op late.  Each op is sent when due, whatever is still
   in flight; returns once every op has settled or [grace] seconds
   after the last one was due (ops unanswered then stay [ok = false]). *)
let spin = 0.001

let open_loop conns schedule ~grace =
  let n = Array.length schedule in
  let frames = Array.map (fun (_, o) -> frame_of o) schedule in
  let start = Unix.gettimeofday () +. 0.005 in
  Array.iter (fun (_, o) -> o.due <- start +. o.due) schedule;
  let deadline = (if n = 0 then start else (snd schedule.(n - 1)).due) +. grace in
  let next = ref 0 in
  let finished () = !next >= n && outstanding conns = 0 in
  while (not (finished ())) && Unix.gettimeofday () < deadline do
    let t = Unix.gettimeofday () in
    while !next < n && (snd schedule.(!next)).due <= t do
      let c, o = schedule.(!next) in
      submit ~frame:frames.(!next) c o (Unix.gettimeofday ());
      incr next
    done;
    (* sleep in select while the next op is far off; spin (poll with a
       zero timeout) through its last [spin] seconds, so the kernel's
       wake-up latency does not make it late *)
    let wait =
      if !next < n then (snd schedule.(!next)).due -. Unix.gettimeofday () -. spin
      else 0.05
    in
    pump conns ~timeout:(Float.min wait 0.05)
  done

(* one blocking request on a fresh connection, outside any timed phase *)
let rpc port req =
  let c = Net.connect ~port () in
  Fun.protect ~finally:(fun () -> Net.close c) (fun () -> Net.rpc c req)

let stats port =
  match rpc port Net.Stats with
  | Net.Stats_reply { serve; net } -> (serve, net)
  | _ -> failwith "Stats request got an unexpected reply"
