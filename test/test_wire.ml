(* The shared frame codec.  Two families of contracts:

   - golden bytes: the network request/response frames, the WAL's [R]
     and [G] records and a file image are pinned byte for byte, so any
     change to how a header is printed shows up here before it strands
     a store on disk or a peer on the wire;

   - header validation: [parse_header] reads back exactly what [header]
     prints, and nothing else — an uppercase checksum, a leading-zero or
     signed length, or a missing field is [Wire.Corrupt], because each
     would let a damaged header parse to the values of an undamaged
     one. *)

open Legodb
open Test_util

let prop name ?(count = 200) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let corrupt f =
  match f () with _ -> false | exception Wire.Corrupt _ -> true

let r1 =
  {
    Wal.seq = 1;
    rows =
      [
        ("show", [ [| Rtype.V_int 7; Rtype.V_string "Fargo"; Rtype.V_null |] ]);
      ];
  }

let r2 =
  {
    Wal.seq = 2;
    rows =
      [
        ("actor", [ [| Rtype.V_int 9; Rtype.V_string "a\nb" |] ]); ("show", []);
      ];
  }

(* a header token: no space, no newline, and never mistakable for a
   checksum or a length (it starts past 'f'), so dropping a field can
   not shift a head token into a valid field position *)
let gen_token =
  QCheck2.Gen.(
    map2
      (fun c rest -> String.make 1 c ^ rest)
      (char_range 'g' 'z')
      (string_size ~gen:(char_range '!' '~') (int_range 0 11)))

let gen_head =
  QCheck2.Gen.(map (String.concat " ") (list_size (int_range 1 3) gen_token))

let header_line head payload =
  let h = Wire.header head payload in
  String.sub h 0 (String.length h - 1)

(* [head crc len] with one field rewritten *)
let rewrite line f =
  match List.rev (String.split_on_char ' ' line) with
  | len :: crc :: rev_head ->
      String.concat " " (List.rev_append rev_head (f crc len))
  | _ -> assert false

let suite =
  [
    case "golden bytes: frames and records are unchanged" (fun () ->
        check_string "network request"
          "LEGODB-NET 1 56a59084 10\nquery\n1\nq\n"
          (Net.encode_request (Net.Query "q"));
        check_string "network response" "LEGODB-NET 1 d49502d3 5\npong\n"
          (Net.encode_response Net.Pong);
        check_string "WAL record"
          "R e3b600f0 31\n1\n1\n4\nshow\n3\n1\ni\n7\ns\n5\nFargo\nn\n\n"
          (Wal.encode_record r1);
        check_string "WAL group"
          "G eb155c72 70\n1\n2\n1\n4\nshow\n3\n1\ni\n7\ns\n5\nFargo\nn\n2\n5\nactor\n2\n1\ni\n9\ns\n3\na\nb\n4\nshow\n0\n0\n\n"
          (Wal.encode_group [ r1; r2 ]);
        check_string "file image" "LEGODB-TEST 3 ab7d37d5 11\nhello\nworld"
          (Wire.frame ~magic:"LEGODB-TEST" ~version:3 "hello\nworld"));
    case "header fields must be canonical" (fun () ->
        let ok = header_line "R" "payload" in
        check_bool "the printed line parses" true
          (Wire.parse_header ok = ([ "R" ], Wire.crc32 "payload", 7));
        List.iter
          (fun (what, line) ->
            check_bool what true (corrupt (fun () -> Wire.parse_header line)))
          [
            ("uppercase hex", "R 8BADF00D 7");
            ("short hex", "R badf00d 7");
            ("hex prefix", "R 0xbadf00d 7");
            ("leading-zero length", "R 8badf00d 07");
            ("signed length", "R 8badf00d +7");
            ("negative length", "R 8badf00d -7");
            ("underscore length", "R 8badf00d 1_0");
            ("hex length", "R 8badf00d 0x7");
            ("no head", "8badf00d 7");
            ("no length", "R 8badf00d");
            ("empty line", "");
          ]);
    case "version and magic are checked separately" (fun () ->
        let check head =
          Wire.check_version ~magic:"LEGODB-TEST" ~version:3 ~kind:"test"
            (String.split_on_char ' ' head)
        in
        check "LEGODB-TEST 3";
        let rejects expect head =
          match check head with
          | () -> false
          | exception Wire.Corrupt m -> contains m expect
        in
        check_bool "wrong magic" true (rejects "magic" "LEGODB-NOPE 3");
        check_bool "wrong version" true (rejects "version 4" "LEGODB-TEST 4");
        check_bool "non-canonical version" true
          (rejects "version" "LEGODB-TEST 03");
        check_bool "extra token" true (rejects "magic" "LEGODB-TEST 3 x"));
    case "unframe rejects trailing bytes and short payloads" (fun () ->
        let img = Wire.frame ~magic:"LEGODB-TEST" ~version:3 "hello" in
        let unframe s =
          Wire.unframe ~magic:"LEGODB-TEST" ~version:3 ~kind:"test" s
        in
        check_string "round trip" "hello" (unframe img);
        check_bool "trailing byte" true
          (corrupt (fun () -> unframe (img ^ "x")));
        check_bool "short payload" true
          (corrupt (fun () ->
               unframe (String.sub img 0 (String.length img - 1)))));
    case "expect_end names the leftover bytes" (fun () ->
        let cur = Wire.cursor "1\n2\n" in
        ignore (Wire.r_int cur);
        check_bool "one token left" true
          (match Wire.expect_end cur "test" with
          | () -> false
          | exception Wire.Corrupt m -> contains m "2 trailing bytes in test");
        ignore (Wire.r_int cur);
        Wire.expect_end cur "test");
    case "a bad network header is Broken before its payload arrives"
      (fun () ->
        let frame = Net.encode_request (Net.Query "a longer query text") in
        let nl = String.index frame '\n' in
        let line = String.sub frame 0 nl in
        let rest = String.sub frame nl (String.length frame - nl) in
        (* header line plus the first payload byte: a legal prefix *)
        let prefix s = String.sub s 0 (String.index s '\n' + 2) in
        check_bool "valid header waits" true
          (Net.extract (prefix frame) = `Partial);
        let broken s =
          match Net.extract (prefix s) with `Broken _ -> true | _ -> false
        in
        check_bool "bad version" true
          (broken
             (Printf.sprintf "LEGODB-NET 2%s%s"
                (String.sub line 12 (String.length line - 12))
                rest));
        check_bool "uppercase checksum" true
          (broken (String.uppercase_ascii line ^ rest)));
  ]

let props =
  [
    prop "parse_header reads back what header prints"
      QCheck2.Gen.(pair gen_head string)
      (fun (head, payload) ->
        Wire.parse_header (header_line head payload)
        = ( String.split_on_char ' ' head,
            Wire.crc32 payload,
            String.length payload ));
    prop "non-canonical spellings of a header are Corrupt"
      QCheck2.Gen.(triple gen_head string (int_range 0 4))
      (fun (head, payload, variant) ->
        let line = header_line head payload in
        let damaged =
          match variant with
          | 0 ->
              (* uppercase hex; the first digit is forced to a letter so
                 an all-decimal checksum changes too *)
              rewrite line (fun crc len ->
                  [ "A" ^ String.sub (String.uppercase_ascii crc) 1 7; len ])
          | 1 -> rewrite line (fun crc len -> [ crc; "0" ^ len ])
          | 2 -> rewrite line (fun crc len -> [ crc; "+" ^ len ])
          | 3 -> rewrite line (fun _ len -> [ len ])
          | _ -> rewrite line (fun crc _ -> [ crc ])
        in
        corrupt (fun () -> Wire.parse_header damaged));
  ]
