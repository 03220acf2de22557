(* Tests for the codesign_obs measurement library: JSON emit/parse,
   checksums, and the BENCH_results.json report schema. *)

module Obs = Codesign_obs
module Json = Codesign_obs.Json
module Registry = Codesign_experiments.Registry

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let sample =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("n", Json.Int (-42));
      ("x", Json.Float 1.5);
      ("s", Json.Str "quote \" backslash \\ newline \n tab \t done");
      ("items", Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]);
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
      ("nested", Json.Obj [ ("k", Json.List [ Json.Str "v" ]) ]);
    ]

let test_json_roundtrip () =
  match Json.parse (Json.to_string sample) with
  | Ok v -> if v <> sample then fail "compact round trip changed the value"
  | Error e -> fail ("compact parse failed: " ^ e)

let test_json_roundtrip_pretty () =
  match Json.parse (Json.to_string ~pretty:true sample) with
  | Ok v -> if v <> sample then fail "pretty round trip changed the value"
  | Error e -> fail ("pretty parse failed: " ^ e)

let test_json_literals () =
  check Alcotest.string "compact obj" "{\"a\":1,\"b\":[true,null]}"
    (Json.to_string
       (Json.Obj
          [ ("a", Json.Int 1);
            ("b", Json.List [ Json.Bool true; Json.Null ]) ]));
  check Alcotest.string "float gets a point" "1.0"
    (Json.to_string (Json.Float 1.0));
  check Alcotest.string "control chars escaped" "\"\\u0001\""
    (Json.to_string (Json.Str "\001"))

let test_json_nonfinite_rejected () =
  try
    ignore (Json.to_string (Json.Float Float.nan));
    fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_json_parse_numbers () =
  (match Json.parse "[0,-7,2.5,1e3,-0.125]" with
  | Ok
      (Json.List
        [ Json.Int 0; Json.Int (-7); Json.Float 2.5; Json.Float 1000.;
          Json.Float (-0.125) ]) ->
      ()
  | Ok _ -> fail "wrong number classification"
  | Error e -> fail e);
  match Json.parse "18446744073709551616" with
  | Error _ -> () (* out of int range: a clean error, not a crash *)
  | Ok _ -> fail "expected overflow error"

let test_json_parse_escapes () =
  (match Json.parse "\"a\\u0041\\n\\\\\"" with
  | Ok (Json.Str s) -> check Alcotest.string "unescaped" "aA\n\\" s
  | Ok _ -> fail "not a string"
  | Error e -> fail e);
  (* a \u escape takes exactly four hex digits — no sign, no digit
     separator — and anything else is an Error naming the offset of the
     offending character, never an exception *)
  List.iter
    (fun (input, expect) ->
      match Json.parse input with
      | Error e -> check Alcotest.string input expect e
      | Ok _ -> fail ("accepted malformed escape: " ^ input)
      | exception ex -> fail (input ^ " raised " ^ Printexc.to_string ex))
    [
      ({|"\uZZZZ"|}, "bad \\u escape at offset 3");
      ({|"\u+123"|}, "bad \\u escape at offset 3");
      ({|"\u-123"|}, "bad \\u escape at offset 3");
      ({|"\u1_23"|}, "bad \\u escape at offset 4");
    ]

let test_json_parse_errors () =
  let bad s =
    match Json.parse s with
    | Error _ -> ()
    | Ok _ -> fail ("accepted malformed input: " ^ s)
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "nul";
  bad "\"unterminated";
  bad "42 43" (* trailing input *)

let test_json_accessors () =
  let j = Json.Obj [ ("a", Json.Int 3); ("b", Json.Str "x") ] in
  check (Alcotest.option Alcotest.int) "member int" (Some 3)
    (Option.bind (Json.member "a" j) Json.to_int);
  check (Alcotest.option Alcotest.string) "member str" (Some "x")
    (Option.bind (Json.member "b" j) Json.to_str);
  check (Alcotest.option Alcotest.int) "missing" None
    (Option.bind (Json.member "zz" j) Json.to_int);
  check
    (Alcotest.option (Alcotest.float 1e-9))
    "int widens to float" (Some 3.0)
    (Option.bind (Json.member "a" j) Json.to_float)

(* ------------------------------------------------------------------ *)
(* Checksum                                                            *)
(* ------------------------------------------------------------------ *)

let test_checksum_vectors () =
  (* standard FNV-1a 64 test vectors *)
  check Alcotest.string "empty" "cbf29ce484222325" (Obs.Checksum.of_string "");
  check Alcotest.string "a" "af63dc4c8601ec8c" (Obs.Checksum.of_string "a");
  check Alcotest.string "foobar" "85944171f73967e8"
    (Obs.Checksum.of_string "foobar");
  (* 1000 bytes covering 0x00-0xff, so bytes >= 0x80 are folded too *)
  check Alcotest.string "long, high bytes" "215b69a99ce7eea5"
    (Obs.Checksum.of_string
       (String.init 1000 (fun i -> Char.chr (((i * 37) + 11) land 0xff))))

(* [fold_int] must feed exactly the bytes of [string_of_int n]: the
   fault tags are pinned to the hashes of that text. *)
let digit_text_hash n =
  Obs.Checksum.fold_int Obs.Checksum.offset_basis n

let test_checksum_fold_int_edges () =
  (* every power of ten that fits, each +/- 1, and their negations *)
  let rec powers p acc =
    let acc = (p - 1) :: p :: (p + 1) :: acc in
    if p > max_int / 10 then acc else powers (p * 10) acc
  in
  let around = powers 1 [] in
  List.iter
    (fun n ->
      check Alcotest.int64 (string_of_int n)
        (Obs.Checksum.fnv1a64 (string_of_int n))
        (digit_text_hash n))
    ([ min_int; min_int + 1; max_int; 0; -1 ]
    @ around
    @ List.map (fun n -> -n) around);
  check Alcotest.int64 "continues a running hash"
    (Obs.Checksum.fnv1a64 "ack:-42")
    (Obs.Checksum.fold_int (Obs.Checksum.fnv1a64 "ack:") (-42));
  check Alcotest.int64 "fold_string continues a running hash"
    (Obs.Checksum.fnv1a64 "foobar")
    (Obs.Checksum.fold_string (Obs.Checksum.fnv1a64 "foo") "bar")

(* Random ints of every magnitude and both signs: a full-range draw
   shifted right by 0..62 bits. *)
let prop_checksum_fold_int =
  QCheck.Test.make ~name:"fold_int = fnv1a64 (string_of_int n)" ~count:2000
    QCheck.(
      make ~print:string_of_int
        Gen.(map2 (fun n k -> n asr k) int (int_range 0 62)))
    (fun n -> digit_text_hash n = Obs.Checksum.fnv1a64 (string_of_int n))

let test_checksum_distinguishes () =
  check Alcotest.bool "different tables differ" false
    (Obs.Checksum.of_string "table v1" = Obs.Checksum.of_string "table v2")

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_monotonic () =
  let a = Obs.Clock.now_ns () in
  let b = Obs.Clock.now_ns () in
  check Alcotest.bool "nondecreasing" true (Int64.compare b a >= 0);
  let (), dt = Obs.Clock.time (fun () -> ignore (Sys.opaque_identity 1)) in
  check Alcotest.bool "elapsed nonnegative" true (dt >= 0.0)

(* ------------------------------------------------------------------ *)
(* Bench_report: the BENCH_results.json schema                         *)
(* ------------------------------------------------------------------ *)

let sample_report () =
  {
    Obs.Bench_report.schema_version = Obs.Bench_report.schema_version;
    mode = "quick";
    domains = 4;
    recommended_domains = Some 2;
    ocaml_version = Some "5.1.1";
    tables_wall_s = 0.25;
    experiments =
      List.mapi
        (fun i id ->
          {
            Obs.Bench_report.name = id;
            wall_s = 0.01 *. float_of_int (i + 1);
            events = 100 * i;
            activations = 50 * i;
            scheduled = 110 * i;
            kernels = i;
            table_checksum = Obs.Checksum.of_string id;
          })
        Registry.ids;
    microbenchmarks =
      [ { Obs.Bench_report.m_name = "codesign/iss/fir-kernel";
          ns_per_run = 12345.6; samples = Some 412; r_square = Some 0.9987 };
        { Obs.Bench_report.m_name = "codesign/iss/fir-kernel-block";
          ns_per_run = 2345.6; samples = Some 97; r_square = None } ];
  }

let test_report_roundtrip () =
  let r = sample_report () in
  match Obs.Bench_report.of_json (Obs.Bench_report.to_json r) with
  | Ok r' -> if r' <> r then fail "report round trip changed the value"
  | Error e -> fail e

(* The golden test the bench harness's artifact is held to: written with
   Bench_report.write (the exact code path bench/main.exe uses), the
   file must parse back and name every registry experiment. *)
let test_report_golden_file () =
  let path = Filename.temp_file "bench_results" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Bench_report.write ~path (sample_report ());
      match Obs.Bench_report.read ~path with
      | Error e -> fail ("written artifact does not parse: " ^ e)
      | Ok r ->
          let names =
            List.map (fun e -> e.Obs.Bench_report.name) r.experiments
          in
          check (Alcotest.list Alcotest.string) "all fourteen experiments"
            [ "EXP-1"; "EXP-2"; "EXP-3"; "EXP-3M"; "EXP-4"; "EXP-5"; "EXP-6";
              "EXP-7"; "EXP-8"; "EXP-9"; "EXP-10"; "EXP-A"; "EXP-F";
              "EXP-P" ]
            names;
          check Alcotest.int "schema version" Obs.Bench_report.schema_version
            r.Obs.Bench_report.schema_version)

(* A schema-1 artifact, the bytes of the BENCH_results.json committed
   before schema 2, still reads: no host facts, and microbenchmarks
   without sample counts or r². *)
let test_report_reads_schema1 () =
  match Obs.Bench_report.read ~path:"golden/bench_results_schema1.json" with
  | Error e -> fail ("schema 1 artifact rejected: " ^ e)
  | Ok r ->
      check Alcotest.int "schema version" 1 r.Obs.Bench_report.schema_version;
      check Alcotest.string "mode" "full" r.Obs.Bench_report.mode;
      check Alcotest.bool "no host facts" true
        (r.Obs.Bench_report.recommended_domains = None
        && r.Obs.Bench_report.ocaml_version = None);
      check Alcotest.int "experiments" 14
        (List.length r.Obs.Bench_report.experiments);
      check Alcotest.int "microbenchmarks" 22
        (List.length r.Obs.Bench_report.microbenchmarks);
      List.iter
        (fun (m : Obs.Bench_report.micro) ->
          if m.Obs.Bench_report.samples <> None
             || m.Obs.Bench_report.r_square <> None
          then fail (m.Obs.Bench_report.m_name ^ ": fit fields in schema 1");
          if not (m.Obs.Bench_report.ns_per_run > 0.) then
            fail (m.Obs.Bench_report.m_name ^ ": no estimate"))
        r.Obs.Bench_report.microbenchmarks

(* The committed artifact is a full-mode run in which bechamel fitted
   every microbenchmark to at least 10 samples, with a finite r². *)
let test_committed_artifact_fits () =
  match Obs.Bench_report.read ~path:"../BENCH_results.json" with
  | Error e -> fail ("committed BENCH_results.json: " ^ e)
  | Ok r ->
      check Alcotest.string "mode" "full" r.Obs.Bench_report.mode;
      check Alcotest.bool "has microbenchmarks" true
        (r.Obs.Bench_report.microbenchmarks <> []);
      List.iter
        (fun (m : Obs.Bench_report.micro) ->
          match (m.Obs.Bench_report.samples, m.Obs.Bench_report.r_square) with
          | Some n, Some _ when n >= 10 -> ()
          | samples, _ ->
              fail
                (Printf.sprintf "%s: %d samples%s" m.Obs.Bench_report.m_name
                   (Option.value samples ~default:0)
                   (if m.Obs.Bench_report.r_square = None then ", no r²"
                    else "")))
        r.Obs.Bench_report.microbenchmarks

let test_report_rejects_bad () =
  let reject j name =
    match Obs.Bench_report.of_json j with
    | Error _ -> ()
    | Ok _ -> fail ("accepted invalid report: " ^ name)
  in
  reject (Json.Obj []) "empty object";
  reject
    (Json.Obj [ ("schema_version", Json.Int 999) ])
    "future schema version";
  let good = Obs.Bench_report.to_json (sample_report ()) in
  let with_micro fields =
    match good with
    | Json.Obj top ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "microbenchmarks" then
                 (k, Json.List [ Json.Obj fields ])
               else (k, v))
             top)
    | _ -> fail "report did not serialise to an object"
  in
  reject
    (with_micro
       [ ("name", Json.Str "x"); ("ns_per_run", Json.Float 1.);
         ("samples", Json.Str "many") ])
    "microbenchmark with a non-integer sample count";
  (match good with
  | Json.Obj fields ->
      reject
        (Json.Obj
           (List.map
              (fun (k, v) ->
                if k = "experiments" then
                  (k, Json.List [ Json.Obj [ ("name", Json.Int 3) ] ])
                else (k, v))
              fields))
        "experiment with wrong field type"
  | _ -> fail "report did not serialise to an object")

(* Regression: a tables-only harness run ([bench/main.exe tables]) used
   to rewrite the artifact with an empty microbenchmark list.  Run the
   real harness in tables mode in a fresh directory, over a report
   holding one entry and over an unreadable file: the entry must
   survive, and the unreadable file gives way to a report with none. *)
let test_report_tables_run_keeps_micros () =
  let exe = Filename.concat (Sys.getcwd ()) "../bench/main.exe" in
  let tables_run seed_file =
    let dir = Filename.temp_dir "bench_tables" "" in
    let path = Filename.concat dir "BENCH_results.json" in
    Fun.protect
      ~finally:(fun () ->
        if Sys.file_exists path then Sys.remove path;
        Sys.rmdir dir)
      (fun () ->
        seed_file path;
        let rc =
          Sys.command
            (Printf.sprintf "cd %s && %s quick tables -j 1 > /dev/null"
               (Filename.quote dir) (Filename.quote exe))
        in
        check Alcotest.int "harness exit code" 0 rc;
        match Obs.Bench_report.read ~path with
        | Error e -> fail ("rewritten artifact does not parse: " ^ e)
        | Ok r ->
            check Alcotest.int "experiments rewritten"
              (List.length Registry.ids)
              (List.length r.Obs.Bench_report.experiments);
            r.Obs.Bench_report.microbenchmarks)
  in
  let recorded = (sample_report ()).Obs.Bench_report.microbenchmarks in
  let kept =
    tables_run (fun path -> Obs.Bench_report.write ~path (sample_report ()))
  in
  check Alcotest.bool "the recorded microbenchmark survives" true
    (kept = recorded);
  let fresh =
    tables_run (fun path ->
        Out_channel.with_open_bin path (fun oc ->
            output_string oc "not json"))
  in
  check Alcotest.int "unreadable file: no entries" 0 (List.length fresh)

(* ------------------------------------------------------------------ *)
(* Fuzz_report: the fuzz --json schema                                 *)
(* ------------------------------------------------------------------ *)

let sample_fuzz_report () =
  {
    Obs.Fuzz_report.schema_version = Obs.Fuzz_report.schema_version;
    seed = 42;
    count = 500;
    behavior_cases = 407;
    ladder_cases = 31;
    taskgraph_cases = 62;
    fault_cases = 0;
    rtl_blocks = 4542;
    wall_s = 6.5;
    failures =
      [
        {
          Obs.Fuzz_report.f_category = "behavior";
          f_seed = 63;
          f_detail = "iss results differ";
          f_program = Some "proc fz() {\n  out(0, 1);\n}";
          f_shrunk_stmts = Some 1;
        };
        {
          Obs.Fuzz_report.f_category = "ladder";
          f_seed = 64;
          f_detail = "checksum differs";
          f_program = None;
          f_shrunk_stmts = None;
        };
      ];
    degraded =
      [
        ( 97,
          {
            Obs.Degraded.error = "Failure(\"boom\")";
            attempts = 3;
            elapsed = 0;
          } );
      ];
  }

let test_fuzz_report_roundtrip () =
  let r = sample_fuzz_report () in
  match Obs.Fuzz_report.of_json (Obs.Fuzz_report.to_json r) with
  | Ok r' -> if r' <> r then fail "fuzz report round trip changed the value"
  | Error e -> fail e

let test_fuzz_report_file_roundtrip () =
  let path = Filename.temp_file "fuzz_results" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Json.write_file ~path (Obs.Fuzz_report.to_json (sample_fuzz_report ()));
      match Obs.Fuzz_report.read ~path with
      | Error e -> fail ("written artifact does not parse: " ^ e)
      | Ok r ->
          if r <> sample_fuzz_report () then
            fail "file round trip changed the value")

(* A pre-degradation (schema 1) artifact — no "degraded" member — still
   parses, with an empty degraded list. *)
let test_fuzz_report_reads_v1 () =
  let j =
    match Obs.Fuzz_report.to_json (sample_fuzz_report ()) with
    | Json.Obj fields ->
        Json.Obj
          (List.filter_map
             (fun (k, v) ->
               if k = "degraded" then None
               else if k = "schema_version" then Some (k, Json.Int 1)
               else Some (k, v))
             fields)
    | _ -> fail "fuzz report did not serialise to an object"
  in
  match Obs.Fuzz_report.of_json j with
  | Ok r ->
      check Alcotest.int "old version preserved" 1
        r.Obs.Fuzz_report.schema_version;
      check Alcotest.bool "no degraded entries" true
        (r.Obs.Fuzz_report.degraded = [])
  | Error e -> fail ("schema 1 fuzz report rejected: " ^ e)

let test_fuzz_report_rejects_bad () =
  let reject j name =
    match Obs.Fuzz_report.of_json j with
    | Error _ -> ()
    | Ok _ -> fail ("accepted invalid fuzz report: " ^ name)
  in
  reject (Json.Obj []) "empty object";
  reject
    (Json.Obj [ ("schema_version", Json.Int 999) ])
    "future schema version";
  match Obs.Fuzz_report.to_json (sample_fuzz_report ()) with
  | Json.Obj fields ->
      reject
        (Json.Obj
           (List.map
              (fun (k, v) ->
                if k = "failures" then
                  (k, Json.List [ Json.Obj [ ("category", Json.Int 3) ] ])
                else (k, v))
              fields))
        "failure with wrong field type"
  | _ -> fail "fuzz report did not serialise to an object"

(* ------------------------------------------------------------------ *)
(* Fault_report: the fault-campaign --json schema                      *)
(* ------------------------------------------------------------------ *)

let sample_fault_report () =
  {
    Obs.Fault_report.schema_version = Obs.Fault_report.schema_version;
    seed = 42;
    ops_per_cell = 240;
    warmup_per_cell = 120;
    rates = [ 0.02; 0.1 ];
    cells =
      [
        {
          Obs.Fault_report.mechanism = "tlm";
          rate = 0.02;
          ops = 240;
          faulted_ops = 19;
          injected = 48;
          detected = 47;
          recovered_ops = 10;
          lost_ops = 9;
          retries = 52;
          watchdog_bites = 0;
          degraded_to = None;
          sim_cycles = 123456;
          cycle_overhead = 0.485;
          recovery_rate = 0.5263157894;
          mean_detect_latency = 25.33;
          checksum_ok = false;
          degraded = None;
        };
        {
          Obs.Fault_report.mechanism = "degrade";
          rate = 0.1;
          ops = 240;
          faulted_ops = 50;
          injected = 65;
          detected = 99;
          recovered_ops = 45;
          lost_ops = 5;
          retries = 80;
          watchdog_bites = 3;
          degraded_to = Some "token";
          sim_cycles = 654321;
          cycle_overhead = 4.748;
          recovery_rate = 0.9;
          mean_detect_latency = 366.29;
          checksum_ok = false;
          degraded =
            Some
              {
                Obs.Degraded.error = "chaos: injected trap at op 120";
                attempts = 3;
                elapsed = 987654;
              };
        };
      ];
    drills =
      [
        {
          Obs.Fault_report.d_site = "rtl";
          d_mechanism = "tmr-vote";
          d_injected = 30;
          d_detected = 0;
          d_recovered = 30;
        };
      ];
  }

let test_fault_report_roundtrip () =
  let r = sample_fault_report () in
  match Obs.Fault_report.of_json (Obs.Fault_report.to_json r) with
  | Ok r' ->
      (* floats pass through %.12g, so compare re-serialized forms *)
      if
        Json.to_string (Obs.Fault_report.to_json r')
        <> Json.to_string (Obs.Fault_report.to_json r)
      then fail "fault report round trip changed the value"
  | Error e -> fail e

let test_fault_report_file_roundtrip () =
  let path = Filename.temp_file "fault_results" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Fault_report.write ~path (sample_fault_report ());
      let first = In_channel.with_open_bin path In_channel.input_all in
      Obs.Fault_report.write ~path (sample_fault_report ());
      let second = In_channel.with_open_bin path In_channel.input_all in
      check Alcotest.string "writes are byte-identical" first second;
      match Obs.Fault_report.read ~path with
      | Error e -> fail ("written artifact does not parse: " ^ e)
      | Ok r ->
          if
            Json.to_string (Obs.Fault_report.to_json r)
            <> Json.to_string
                 (Obs.Fault_report.to_json (sample_fault_report ()))
          then fail "file round trip changed the value")

(* A pre-degradation (schema 2) artifact still parses: cells without a
   "degraded" member read back as non-degraded. *)
let test_fault_report_reads_v2 () =
  let r = sample_fault_report () in
  let r =
    {
      r with
      Obs.Fault_report.schema_version = 2;
      cells =
        List.map
          (fun c -> { c with Obs.Fault_report.degraded = None })
          r.Obs.Fault_report.cells;
    }
  in
  match Obs.Fault_report.of_json (Obs.Fault_report.to_json r) with
  | Ok r' ->
      check Alcotest.int "old version preserved" 2
        r'.Obs.Fault_report.schema_version;
      check Alcotest.bool "cells read back non-degraded" true
        (List.for_all
           (fun (c : Obs.Fault_report.cell) ->
             c.Obs.Fault_report.degraded = None)
           r'.Obs.Fault_report.cells)
  | Error e -> fail ("schema 2 fault report rejected: " ^ e)

let test_fault_report_rejects_bad () =
  let reject j name =
    match Obs.Fault_report.of_json j with
    | Error _ -> ()
    | Ok _ -> fail ("accepted invalid fault report: " ^ name)
  in
  reject (Json.Obj []) "empty object";
  reject
    (Json.Obj [ ("schema_version", Json.Int 999) ])
    "future schema version";
  match Obs.Fault_report.to_json (sample_fault_report ()) with
  | Json.Obj fields ->
      reject
        (Json.Obj
           (List.map
              (fun (k, v) ->
                if k = "cells" then
                  (k, Json.List [ Json.Obj [ ("mechanism", Json.Int 3) ] ])
                else (k, v))
              fields))
        "cell with wrong field type"
  | _ -> fail "fault report did not serialise to an object"

(* ------------------------------------------------------------------ *)
(* readers never raise                                                 *)
(* ------------------------------------------------------------------ *)

(* Every report reader returns [Error] on bad input and never raises.
   Each case starts from the three sample reports, compact and pretty,
   and damages them two ways: text edits (truncation, a byte replaced by
   a JSON-significant one, a span deleted) that mostly break the parse,
   and tree edits (a member dropped, a value swapped for one of another
   type) that parse but break the schema.  Whatever parses goes through
   all three [of_json] readers. *)
let report_trees () =
  [
    Obs.Bench_report.to_json (sample_report ());
    Obs.Fuzz_report.to_json (sample_fuzz_report ());
    Obs.Fault_report.to_json (sample_fault_report ());
  ]

let read_all j =
  ignore (Obs.Bench_report.of_json j);
  ignore (Obs.Fuzz_report.of_json j);
  ignore (Obs.Fault_report.of_json j)

let junk =
  [| Json.Null; Json.Bool true; Json.Int (-1); Json.Float 0.5; Json.Str "";
     Json.List []; Json.Obj [] |]

let pick st l = List.nth l (Random.State.int st (List.length l))

(* Walk down a random path and drop or replace the node it ends at. *)
let rec mutate_tree st j =
  let at items f =
    let i = Random.State.int st (List.length items) in
    List.concat (List.mapi (fun k x -> if k <> i then [ x ] else f x) items)
  in
  let drop_or f x = if Random.State.int st 3 = 0 then [] else [ f x ] in
  match j with
  | Json.Obj (_ :: _ as fields) when Random.State.int st 4 > 0 ->
      Json.Obj (at fields (drop_or (fun (name, v) -> (name, mutate_tree st v))))
  | Json.List (_ :: _ as items) when Random.State.int st 4 > 0 ->
      Json.List (at items (drop_or (mutate_tree st)))
  | _ -> junk.(Random.State.int st (Array.length junk))

let mutate_text st s =
  let n = String.length s in
  if n = 0 then s
  else
    match Random.State.int st 3 with
    | 0 -> String.sub s 0 (Random.State.int st n)
    | 1 ->
        let b = Bytes.of_string s in
        Bytes.set b (Random.State.int st n)
          (pick st
             [ '{'; '}'; '['; ']'; '"'; ','; ':'; '-'; '0'; 'e'; '.'; '\\' ]);
        Bytes.to_string b
    | _ ->
        let i = Random.State.int st n in
        let len = Random.State.int st (n - i + 1) in
        String.sub s 0 i ^ String.sub s (i + len) (n - i - len)

let prop_readers_never_raise =
  QCheck.Test.make ~count:500
    ~name:"report readers never raise on damaged input" QCheck.int
    (fun seed ->
      let st = Random.State.make [| seed |] in
      List.iter
        (fun tree ->
          let damaged = ref tree in
          for _ = 0 to Random.State.int st 3 do
            damaged := mutate_tree st !damaged
          done;
          read_all !damaged;
          let text = ref (Json.to_string ~pretty:(Random.State.bool st) tree) in
          for _ = 0 to Random.State.int st 2 do
            text := mutate_text st !text
          done;
          match Json.parse !text with Ok j -> read_all j | Error _ -> ())
        (report_trees ());
      true)

(* The registry itself: fourteen entries, unique ids, resolvable by both
   spellings. *)
let test_registry_shape () =
  check Alcotest.int "fourteen experiments" 14 (List.length Registry.all);
  check Alcotest.int "unique ids" 14
    (List.length (List.sort_uniq compare Registry.ids));
  (match Registry.find "exp10" with
  | Some e -> check Alcotest.string "cli name resolves" "EXP-10" e.exp_id
  | None -> fail "exp10 not found");
  match Registry.find "EXP-A" with
  | Some e -> check Alcotest.string "exp id resolves" "expA" e.cli_name
  | None -> fail "EXP-A not found"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "codesign_obs"
    [
      ( "json",
        [
          Alcotest.test_case "round trip compact" `Quick test_json_roundtrip;
          Alcotest.test_case "round trip pretty" `Quick
            test_json_roundtrip_pretty;
          Alcotest.test_case "literal forms" `Quick test_json_literals;
          Alcotest.test_case "non-finite rejected" `Quick
            test_json_nonfinite_rejected;
          Alcotest.test_case "number classification" `Quick
            test_json_parse_numbers;
          Alcotest.test_case "string escapes" `Quick test_json_parse_escapes;
          Alcotest.test_case "malformed inputs" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "fnv1a64 vectors" `Quick test_checksum_vectors;
          Alcotest.test_case "distinguishes" `Quick
            test_checksum_distinguishes;
          Alcotest.test_case "fold_int at the edges" `Quick
            test_checksum_fold_int_edges;
          QCheck_alcotest.to_alcotest prop_checksum_fold_int;
        ] );
      ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ] );
      ( "bench_report",
        [
          Alcotest.test_case "round trip" `Quick test_report_roundtrip;
          Alcotest.test_case "golden file: parses, names all fourteen" `Quick
            test_report_golden_file;
          Alcotest.test_case "rejects invalid" `Quick test_report_rejects_bad;
          Alcotest.test_case "schema 1 artifact still reads" `Quick
            test_report_reads_schema1;
          Alcotest.test_case "committed artifact: 10+ samples and r² each"
            `Quick test_committed_artifact_fits;
          Alcotest.test_case "tables run keeps microbenchmarks" `Quick
            test_report_tables_run_keeps_micros;
          Alcotest.test_case "registry shape" `Quick test_registry_shape;
        ] );
      ( "fuzz_report",
        [
          Alcotest.test_case "round trip" `Quick test_fuzz_report_roundtrip;
          Alcotest.test_case "file round trip" `Quick
            test_fuzz_report_file_roundtrip;
          Alcotest.test_case "rejects invalid" `Quick
            test_fuzz_report_rejects_bad;
          Alcotest.test_case "reads schema 1 artifacts" `Quick
            test_fuzz_report_reads_v1;
        ] );
      ( "fault_report",
        [
          Alcotest.test_case "round trip" `Quick test_fault_report_roundtrip;
          Alcotest.test_case "file round trip byte-identical" `Quick
            test_fault_report_file_roundtrip;
          Alcotest.test_case "rejects invalid" `Quick
            test_fault_report_rejects_bad;
          Alcotest.test_case "reads schema 2 artifacts" `Quick
            test_fault_report_reads_v2;
        ] );
      ("readers", [ QCheck_alcotest.to_alcotest prop_readers_never_raise ]);
    ]
