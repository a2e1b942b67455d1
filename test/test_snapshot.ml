(* Snapshot container: primitive round-trips, canonical encoding,
   loud rejection of corrupted or truncated files, the CRC-32, and the
   module-level save/restore/save byte-equality that checkpointing
   rests on. *)

module Snap = Netsim.Snapshot

let prop ~count name gen p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen p)

(* ------------------------------------------------------------------ *)
(* W/R primitives *)

type value =
  | I of int
  | B of bool
  | F of float
  | S of string
  | A of int array
  | L of int list

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> I v) int;
        map (fun v -> B v) bool;
        map (fun v -> F v) float;
        map (fun v -> S v) (string_size (int_range 0 40));
        map (fun v -> A (Array.of_list v)) (list_size (int_range 0 20) int);
        map (fun v -> L v) (list_size (int_range 0 20) int);
      ])

let write_value w = function
  | I v -> Snap.W.int w v
  | B v -> Snap.W.bool w v
  | F v -> Snap.W.float w v
  | S v -> Snap.W.string w v
  | A v -> Snap.W.int_array w v
  | L v -> Snap.W.int_list w v

let read_value r = function
  | I _ -> I (Snap.R.int r)
  | B _ -> B (Snap.R.bool r)
  | F _ -> F (Snap.R.float r)
  | S _ -> S (Snap.R.string r)
  | A _ -> A (Snap.R.int_array r)
  | L _ -> L (Snap.R.int_list r)

(* NaN-proof equality: floats compare by bit pattern. *)
let value_eq a b =
  match (a, b) with
  | F x, F y -> Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> a = b

let prop_primitives_roundtrip =
  prop ~count:200 "W then R returns every primitive"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 30) value_gen))
    (fun values ->
      let sec =
        Snap.make ~name:"t" ~version:3 (fun w ->
            List.iter (write_value w) values)
      in
      let back =
        Snap.read sec ~name:"t" ~version:3 (fun r ->
            List.map (read_value r) values)
      in
      List.for_all2 value_eq values back)

(* ------------------------------------------------------------------ *)
(* Container: canonical encoding and damage rejection *)

let section_gen =
  QCheck.Gen.(
    map3
      (fun name version payload ->
        Snap.make
          ~name:(Printf.sprintf "s-%s" name)
          ~version:(version land 0xFFFF)
          (fun w -> Snap.W.string w payload))
      (string_size ~gen:(char_range 'a' 'z') (int_range 1 12))
      nat
      (string_size (int_range 0 200)))

let sections_gen =
  QCheck.make QCheck.Gen.(list_size (int_range 0 6) section_gen)

let sections_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         Snap.section_name x = Snap.section_name y
         && Snap.section_version x = Snap.section_version y
         && Snap.read x ~name:(Snap.section_name x)
              ~version:(Snap.section_version x) Snap.R.string
            = Snap.read y ~name:(Snap.section_name y)
                ~version:(Snap.section_version y) Snap.R.string)
       a b

let prop_container_roundtrip =
  prop ~count:100 "decode inverts encode, re-encode is byte-identical"
    sections_gen (fun secs ->
      let bytes = Snap.encode secs in
      let back = Snap.decode bytes in
      sections_equal secs back && Snap.encode back = bytes)

let rejects what f =
  match f () with
  | exception Snap.Corrupt _ -> true
  | _ ->
    Printf.eprintf "expected Corrupt: %s\n" what;
    false

let prop_flip_any_byte_rejected =
  (* Every byte of the file is covered by a checksum (or is structure
     whose damage is caught first), so any single-byte flip must raise. *)
  prop ~count:150 "flipping any byte raises Corrupt"
    (QCheck.pair sections_gen QCheck.small_int)
    (fun (secs, at) ->
      let bytes = Bytes.of_string (Snap.encode secs) in
      let i = at mod Bytes.length bytes in
      Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x5A));
      rejects "byte flip" (fun () -> Snap.decode (Bytes.to_string bytes)))

let prop_truncation_rejected =
  prop ~count:150 "any truncation raises Corrupt"
    (QCheck.pair sections_gen QCheck.small_int)
    (fun (secs, at) ->
      let s = Snap.encode secs in
      let keep = at mod String.length s in
      rejects "truncation" (fun () -> Snap.decode (String.sub s 0 keep)))

let test_bad_magic () =
  Alcotest.(check bool)
    "wrong magic rejected" true
    (rejects "magic" (fun () -> Snap.decode "NOTASNAPxxxxxxxxxxxxxxxx"))

let test_read_checks_name_and_version () =
  let sec = Snap.make ~name:"a" ~version:1 (fun w -> Snap.W.int w 7) in
  Alcotest.(check bool)
    "wrong name" true
    (rejects "name" (fun () -> Snap.read sec ~name:"b" ~version:1 Snap.R.int));
  Alcotest.(check bool)
    "wrong version" true
    (rejects "version" (fun () ->
         Snap.read sec ~name:"a" ~version:2 Snap.R.int));
  Alcotest.(check bool)
    "unconsumed payload" true
    (rejects "leftover" (fun () ->
         Snap.read sec ~name:"a" ~version:1 (fun _ -> ())))

let test_digest_fingerprints_state () =
  let mk v = [ Snap.make ~name:"x" ~version:1 (fun w -> Snap.W.int w v) ] in
  let d1 = Snap.digest (mk 1) and d2 = Snap.digest (mk 2) in
  Alcotest.(check bool) "different state, different digest" true (d1 <> d2);
  (* CRC-32's self-check residue — what every digest collapsed to when
     the trailing file CRC was (wrongly) included in the digested span. *)
  Alcotest.(check bool)
    "digest is not the CRC residue constant" true
    (d1 <> 0x2144DF1C && d2 <> 0x2144DF1C)

(* ------------------------------------------------------------------ *)
(* CRC-32 *)

let test_crc_check_value () =
  Alcotest.(check int) "CRC-32 check value" 0xCBF43926 (Snap.crc32 "123456789");
  Alcotest.(check int) "empty string" 0 (Snap.crc32 "")

(* The plain bytewise CRC-32, as the container computed it before it
   moved to slicing-by-8. *)
let crc32_bytewise s pos len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let prop_crc_matches_bytewise =
  prop ~count:500 "slicing-by-8 CRC = bytewise CRC at any offset"
    (QCheck.make
       ~print:(fun (s, a, b) -> Printf.sprintf "%S %d %d" s a b)
       QCheck.Gen.(triple (string_size (int_range 0 100)) nat nat))
    (fun (s, a, b) ->
      let len = String.length s in
      let pos = a mod (len + 1) in
      let sub = b mod (len - pos + 1) in
      Snap.crc32_sub s pos sub = crc32_bytewise s pos sub
      && Snap.crc32 s = crc32_bytewise s 0 len)

let test_crc_sub_range_checked () =
  let bad pos len =
    match Snap.crc32_sub "abcdef" pos len with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "crc32_sub %d %d accepted" pos len
  in
  bad (-1) 2;
  bad 0 7;
  bad 5 2;
  bad 2 (-1)

(* ------------------------------------------------------------------ *)
(* Module sections: save -> restore -> save is byte-identical *)

let test_engine_section_roundtrip () =
  let e = Netsim.Engine.create () in
  (* cancellations thread the pool free-list, which save must carry *)
  for i = 1 to 20 do
    let c =
      Netsim.Engine.schedule_at e ~at:(Netsim.Time.ms (i * 3)) (fun () -> ())
    in
    if i mod 4 = 0 then Netsim.Engine.cancel e c
  done;
  Netsim.Engine.run e;
  let s1 = Netsim.Engine.save e in
  let e2 = Netsim.Engine.restore s1 in
  let s2 = Netsim.Engine.save e2 in
  Alcotest.(check bool)
    "engine save/restore/save bytes" true
    (Snap.encode [ s1 ] = Snap.encode [ s2 ]);
  Alcotest.(check bool)
    "clock survives restore" true
    (Netsim.Engine.now e2 = Netsim.Engine.now e);
  (* future scheduling behaves identically on both sides of the seam *)
  let at = Netsim.Time.ms 100 in
  let i1 = Netsim.Engine.schedule_at e ~at (fun () -> ())
  and i2 = Netsim.Engine.schedule_at e2 ~at (fun () -> ()) in
  Alcotest.(check bool) "same next event id" true (i1 = i2)

let test_graph_section_roundtrip () =
  let g = Topo.Build.src_lan () in
  Topo.Graph.fail_link g 2;
  Topo.Graph.fail_link g 5;
  Topo.Graph.restore_link g 2;
  let s1 = Topo.Graph.save g in
  let g2 = Topo.Graph.restore s1 in
  let s2 = Topo.Graph.save g2 in
  Alcotest.(check bool)
    "graph save/restore/save bytes" true
    (Snap.encode [ s1 ] = Snap.encode [ s2 ]);
  Alcotest.(check bool)
    "failed link stays failed after restore" true
    ((Topo.Graph.link g2 5).Topo.Graph.state = Topo.Graph.Dead);
  Alcotest.(check int)
    "switch count survives" (Topo.Graph.switch_count g)
    (Topo.Graph.switch_count g2)

(* A fat-tree:4 network carrying guaranteed circuits, one of which
   takes the whole 1024-slot frame, so its cells reach slot 1023 on
   every switch it crosses; a release leaves holes behind. *)
let guaranteed_network () =
  let g, _ = Topo.Build.fat_tree ~k:4 in
  let net = An2.Network.create g in
  let bwc = An2.Bandwidth_central.create net in
  let admit src dst cells =
    match An2.Bandwidth_central.request bwc ~src_host:src ~dst_host:dst ~cells with
    | Ok vc -> vc
    | Error d -> Alcotest.failf "%d -> %d denied: %a" src dst An2.Bandwidth_central.pp_denial d
  in
  let full = admit 0 15 (An2.Network.frame_length net) in
  let _ = admit 2 9 3 in
  let gone = admit 4 11 5 in
  let _ = admit 6 13 2 in
  let _ = admit 5 10 7 in
  An2.Bandwidth_central.release bwc gone;
  (g, net, full)

let test_network_section_roundtrip () =
  let g, net, full = guaranteed_network () in
  let last = An2.Network.frame_length net - 1 in
  let s = List.hd full.An2.Network.switches in
  Alcotest.(check bool)
    "a cell sits in slot frame-1" true
    (List.exists
       (fun input ->
         Frame.Schedule.output_of (An2.Network.switch_schedule net s) ~slot:last ~input
         <> None)
       (List.init (Topo.Graph.ports_per_switch g) Fun.id));
  let s1 = An2.Network.save net in
  let net2 = An2.Network.restore ~graph:g s1 in
  let s2 = An2.Network.save net2 in
  Alcotest.(check bool)
    "network save/restore/save bytes" true
    (Snap.encode [ s1 ] = Snap.encode [ s2 ]);
  for sw = 0 to Topo.Graph.switch_count g - 1 do
    let a = An2.Network.switch_schedule net sw and b = An2.Network.switch_schedule net2 sw in
    for slot = 0 to last do
      for input = 0 to Topo.Graph.ports_per_switch g - 1 do
        if Frame.Schedule.output_of a ~slot ~input <> Frame.Schedule.output_of b ~slot ~input
        then Alcotest.failf "switch %d slot %d input %d differs after restore" sw slot input
      done
    done
  done

(* An "an2-network" section with no circuits and one schedule entry
   (slot, input, output) on switch 0, passed through the container so
   its CRC is valid. *)
let network_section_with_entry g ~frame (slot, input, output) =
  let sec =
    Snap.make ~name:"an2-network" ~version:1 (fun w ->
        let n = Topo.Graph.switch_count g in
        Snap.W.int w frame;
        Snap.W.int w 1;
        Snap.W.int w n;
        Snap.W.int w 0;
        for _ = 1 to n do
          Snap.W.int w 0
        done;
        for s = 0 to n - 1 do
          if s = 0 then begin
            Snap.W.int w 1;
            Snap.W.int w slot;
            Snap.W.int w input;
            Snap.W.int w output
          end
          else Snap.W.int w 0
        done)
  in
  List.hd (Snap.decode (Snap.encode [ sec ]))

let test_network_restore_rejects_bad_entries () =
  let g, _ = Topo.Build.fat_tree ~k:4 in
  let frame = 1024 and ports = Topo.Graph.ports_per_switch g in
  let restore entry =
    An2.Network.restore ~graph:g (network_section_with_entry g ~frame entry)
  in
  (* the well-formed neighbour of each damaged entry restores *)
  let ok = restore (frame - 1, ports - 1, 0) in
  Alcotest.(check (option int))
    "in-range entry restored" (Some 0)
    (Frame.Schedule.output_of (An2.Network.switch_schedule ok 0) ~slot:(frame - 1)
       ~input:(ports - 1));
  List.iter
    (fun (what, entry) ->
      Alcotest.(check bool) what true (rejects what (fun () -> restore entry)))
    [
      ("slot -1", (-1, 0, 0));
      ("slot = frame", (frame, 0, 0));
      ("input = ports_per_switch", (0, ports, 0));
      ("output = ports_per_switch", (0, 0, ports));
      ("input -1", (0, -1, 0));
    ]

let () =
  Alcotest.run "snapshot"
    [
      ( "primitives",
        [ prop_primitives_roundtrip ] );
      ( "container",
        [
          prop_container_roundtrip;
          prop_flip_any_byte_rejected;
          prop_truncation_rejected;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "read checks name/version/consumption" `Quick
            test_read_checks_name_and_version;
          Alcotest.test_case "digest fingerprints state" `Quick
            test_digest_fingerprints_state;
        ] );
      ( "crc",
        [
          Alcotest.test_case "check value" `Quick test_crc_check_value;
          prop_crc_matches_bytewise;
          Alcotest.test_case "sub range checked" `Quick test_crc_sub_range_checked;
        ] );
      ( "module sections",
        [
          Alcotest.test_case "engine round-trip" `Quick
            test_engine_section_roundtrip;
          Alcotest.test_case "graph round-trip" `Quick
            test_graph_section_roundtrip;
          Alcotest.test_case "network round-trip" `Quick
            test_network_section_roundtrip;
          Alcotest.test_case "network rejects bad schedule entries" `Quick
            test_network_restore_rejects_bad_entries;
        ] );
    ]
