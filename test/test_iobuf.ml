(* The front door's offset-carrying byte buffers: consuming is offset
   arithmetic (never a copy), the newline scan never re-examines a
   byte, reserve compacts before it grows, and a drained giant buffer
   gives its storage back. *)

open Legodb
open Test_util

let suite =
  [
    case "append, scan, consume: offsets move, bytes do not" (fun () ->
        let b = Iobuf.create 8 in
        check_bool "starts empty" true (Iobuf.is_empty b);
        Iobuf.add_string b "abc";
        check_int "live bytes" 3 (Iobuf.length b);
        check_bool "no newline yet" true (Iobuf.find_newline b = None);
        Iobuf.add_string b "\ndef";
        (* the watermark resumes where the last scan stopped, and parks
           on a found newline so re-polling is O(1) *)
        check_bool "newline found" true (Iobuf.find_newline b = Some 3);
        check_bool "found again" true (Iobuf.find_newline b = Some 3);
        check_string "sub reads the live window" "abc"
          (Iobuf.sub b ~pos:0 ~len:3);
        Iobuf.consume b 4;
        check_string "consume shifted the window" "def" (Iobuf.contents b);
        check_bool "no newline in the rest" true (Iobuf.find_newline b = None);
        Iobuf.add_string b "g\nh";
        check_bool "scan resumes past old bytes" true
          (Iobuf.find_newline b = Some 4);
        Iobuf.consume b 5;
        check_string "tail survives" "h" (Iobuf.contents b);
        Iobuf.clear b;
        check_bool "clear empties" true (Iobuf.is_empty b));
    case "the newline scan stops at the live window" (fun () ->
        let b = Iobuf.create 64 in
        (* drain a line so its '\n' stays behind in the spare capacity,
           then reuse the front of the storage for two fresh bytes *)
        Iobuf.add_string b "abc\nxyz";
        Iobuf.consume b 7;
        Iobuf.add_string b "ab";
        check_bool "stale newline not found" true (Iobuf.find_newline b = None);
        check_int "watermark ends at the live length" (Iobuf.length b)
          (Iobuf.scanned b);
        Iobuf.add_string b "\n";
        check_bool "a live newline is found" true
          (Iobuf.find_newline b = Some 2);
        check_int "watermark parks on it" 2 (Iobuf.scanned b));
    case "steady traffic compacts in place instead of growing" (fun () ->
        let b = Iobuf.create 16 in
        for i = 0 to 9_999 do
          Iobuf.add_string b (Printf.sprintf "%06d" i);
          (* keep a small live window wandering forward forever *)
          Iobuf.consume b (min 6 (Iobuf.length b))
        done;
        check_bool "capacity stays bounded" true (Iobuf.capacity b <= 64));
    case "a drained giant buffer gives its storage back" (fun () ->
        let b = Iobuf.create 64 in
        Iobuf.add_string b (String.make (2 * 1024 * 1024) 'x');
        check_bool "grew for the payload" true
          (Iobuf.capacity b >= 2 * 1024 * 1024);
        Iobuf.consume b (Iobuf.length b);
        check_bool "shrank once drained" true
          (Iobuf.capacity b < 1024 * 1024));
    case "interleaved adds and consumes match a string reference" (fun () ->
        let b = Iobuf.create 4 in
        let reference = ref "" in
        let rng = Random.State.make [| 42 |] in
        for i = 0 to 999 do
          let chunk =
            String.init
              (1 + Random.State.int rng 13)
              (fun j -> Char.chr (65 + ((i + j) mod 26)))
          in
          Iobuf.add_string b chunk;
          reference := !reference ^ chunk;
          let k = Random.State.int rng (Iobuf.length b + 1) in
          Iobuf.consume b k;
          reference := String.sub !reference k (String.length !reference - k);
          if i mod 97 = 0 then
            check_string "windows agree" !reference (Iobuf.contents b)
        done;
        check_string "final windows agree" !reference (Iobuf.contents b));
    case "sub and consume reject ranges outside the live window" (fun () ->
        let b = Iobuf.create 8 in
        Iobuf.add_string b "abcd";
        (match Iobuf.sub b ~pos:2 ~len:3 with
        | _ -> Alcotest.fail "sub beyond the window must raise"
        | exception Invalid_argument _ -> ());
        (match Iobuf.consume b 5 with
        | () -> Alcotest.fail "consume beyond the window must raise"
        | exception Invalid_argument _ -> ());
        check_string "buffer unharmed" "abcd" (Iobuf.contents b));
    case "write_to honors max and preserves the tail; read_from refills"
      (fun () ->
        let r, w = Unix.pipe () in
        Fun.protect
          ~finally:(fun () ->
            Unix.close r;
            Unix.close w)
          (fun () ->
            let src = Iobuf.of_string "hello, iobuf world" in
            let n = Iobuf.write_to ~max:5 src w in
            check_int "short write injected" 5 n;
            check_string "unsent tail preserved bit-exactly" ", iobuf world"
              (Iobuf.contents src);
            ignore (Iobuf.write_to src w);
            check_bool "source drained" true (Iobuf.is_empty src);
            let dst = Iobuf.create 4 in
            let seen = Buffer.create 32 in
            while Buffer.length seen < 18 do
              ignore (Iobuf.read_from ~chunk:7 dst r);
              Buffer.add_string seen (Iobuf.contents dst);
              Iobuf.consume dst (Iobuf.length dst)
            done;
            check_string "round-trip through the pipe" "hello, iobuf world"
              (Buffer.contents seen)));
  ]
