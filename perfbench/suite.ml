(* The repository's benchmark: the four co-design loops users run, timed
   end to end, plus a traced per-layer breakdown.  README.md has the
   workloads, the metrics and the comparison protocol.

     dune exec perfbench/suite.exe -- [--workload W] [--seed N]
         [--seconds S] [--trace 0|1] [--trace-dir DIR] [--smoke]

   One workload runs in this process: set-up, then whole rounds of ops
   until [--seconds] have passed and the fixed prefix of rounds is done,
   with more set-ups between rounds (their median is [setup_s]).  Each
   op is one public call, timed alone, then checked.  With [--trace 1]
   the prefix runs again with a span around every call, which gives the
   per-layer metrics and a Chrome trace under DIR.  Without [--workload]
   the suite runs itself once per workload, so each gets a fresh
   process.  [--smoke] runs a few ops of every workload, traced, as a
   quick self-test.

   Stdout carries a full JSON report per workload, then, as the last
   line, the summary {correct, attempted, failed, metrics}; stderr
   carries a table.  The exit code is 1 when any check fails: an op's
   output, traced versus untraced counters and digest, the seed-42
   digest against golden.json, or the metric set against
   BENCHMARK.json. *)

module Json = Codesign_obs.Json
module Clock = Codesign_obs.Clock
module Checksum = Codesign_obs.Checksum
module Kernel = Codesign_sim.Kernel
open Workload

let makers =
  [
    ("dse", Wl_dse.make);
    ("cosim", Wl_cosim.make);
    ("fuzz", Wl_fuzz.make);
    ("fault", Wl_fault.make);
  ]

let warmup_ops = 8
let setup_every_s = 2.
let golden_seed = 42

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  trace_dir : string;
  smoke : bool;
}

(* ------------------------------------------------------------------ *)
(* executing ops                                                        *)
(* ------------------------------------------------------------------ *)

(* Digest and deterministic counters of a fixed stretch of ops. *)
type tally = { digests : Buffer.t; counts : (string, int) Hashtbl.t }

let tally () = { digests = Buffer.create 4096; counts = Hashtbl.create 16 }

let add_counts counts l =
  List.iter
    (fun (k, v) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt counts k) in
      Hashtbl.replace counts k (prev + v))
    l

let record t v (k : Kernel.domain_totals) =
  Buffer.add_string t.digests v.digest;
  Buffer.add_char t.digests '\n';
  add_counts t.counts
    (("sim.kernel.events", k.Kernel.d_events)
    :: ("sim.kernel.activations", k.Kernel.d_activations)
    :: ("sim.kernel.scheduled", k.Kernel.d_scheduled)
    :: ("sim.kernel.kernels", k.Kernel.d_kernels)
    :: v.counts)

let bindings h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []
let counters t = List.sort compare (bindings t.counts)
let digest_of t = Checksum.of_string (Buffer.contents t.digests)

(* Every op, failed op and broken check in this process, for the
   summary line. *)
let attempted = ref 0
let failed = ref 0
let errors = ref []
let error e = errors := e :: !errors

(* Runs one op: the call alone is timed, and enclosed by [span] when
   tracing; its check runs afterwards under [check_span]. *)
let exec ?(span = fun _ f -> f ()) ?(check_span = fun f -> f ()) op =
  let before = Kernel.domain_totals () in
  let t0 = Clock.now_ns () in
  let checker =
    span op (fun () -> match op.call () with c -> Ok c | exception e -> Error e)
  in
  let dt = Clock.elapsed_s ~since:t0 in
  let delta = Kernel.diff_totals ~after:(Kernel.domain_totals ()) ~before in
  let raised what e =
    let msg = Printf.sprintf "%s %s %s" op.label what (Printexc.to_string e) in
    { digest = "raised"; error = Some msg; counts = [] }
  in
  let v =
    check_span (fun () ->
        match checker with
        | Error e -> raised "raised" e
        | Ok check -> ( try check () with e -> raised "check raised" e))
  in
  incr attempted;
  Option.iter
    (fun e ->
      incr failed;
      error e)
    v.error;
  (dt, delta, v)

(* ------------------------------------------------------------------ *)
(* the untimed set-up, the timed phase and the traced prefix            *)
(* ------------------------------------------------------------------ *)

(* One set-up: build the workload and a round, then run that round's
   first ops as a warm-up.  Set-up [k] takes round 1_000_000 + k, a
   number the timed phase never reaches, so no timed op repeats a
   warm-up op's inputs. *)
let setup make ~seed k =
  let t0 = Clock.now_ns () in
  let w = make ~seed in
  List.iteri
    (fun i op -> if i < warmup_ops then ignore (exec op))
    (w.round (1_000_000 + k));
  Clock.elapsed_s ~since:t0

type round = {
  op_s : float list;  (** each op's seconds, in order *)
  wall : float;  (** the round's seconds, checks included *)
}

type timed = {
  rounds : round list;
  prefix : tally;
  prefix_ops : int;
  total_s : float;
}

(* Whole rounds until [seconds] have passed and the prefix is done, or
   exactly [limit] ops, which are then the prefix.  A round's clock
   starts once its inputs are generated; [between] runs after each. *)
let run_timed w ~seconds ~limit ~between =
  let prefix = tally () in
  let start = Clock.now_ns () in
  let rounds = ref [] and n = ref 0 and prefix_ops = ref 0 in
  let in_prefix r = limit <> None || r < w.prefix_rounds in
  let room () = match limit with Some l -> !n < l | None -> true in
  let more r =
    limit <> None || r < w.prefix_rounds
    || Clock.elapsed_s ~since:start < seconds
  in
  let r = ref 0 in
  while room () && more !r do
    let ops = w.round !r in
    let t_round = Clock.now_ns () and op_s = ref [] in
    List.iter
      (fun op ->
        if room () then begin
          let dt, delta, v = exec op in
          op_s := dt :: !op_s;
          incr n;
          if in_prefix !r then begin
            record prefix v delta;
            incr prefix_ops
          end
        end)
      ops;
    let wall = Clock.elapsed_s ~since:t_round in
    rounds := { op_s = List.rev !op_s; wall } :: !rounds;
    between ();
    incr r
  done;
  {
    rounds = List.rev !rounds;
    prefix;
    prefix_ops = !prefix_ops;
    total_s = Clock.elapsed_s ~since:start;
  }

type traced = {
  trace : Trace.t;
  t_prefix : tally;
  replay_counts : (string, int) Hashtbl.t;
  t_wall : float;
}

(* The prefix again, with spans: the op itself, its check, and its
   replay.  Harness spans carry [harness_cat]. *)
let run_traced w ~limit =
  let tr = Trace.create () in
  let t_prefix = tally () and replay_counts = Hashtbl.create 8 in
  let harness name f = Trace.with_span tr ~name ~cat:harness_cat f in
  let span op f =
    Trace.with_span tr ~name:op.label ~cat:op.layer
      ~args:[ ("kind", Json.Str op.kind) ]
      f
  in
  let n = ref 0 in
  let room () = match limit with Some l -> !n < l | None -> true in
  let start = Clock.now_ns () in
  let r = ref 0 in
  while room () && (limit <> None || !r < w.prefix_rounds) do
    List.iter
      (fun op ->
        if room () then begin
          let _, delta, v = exec ~span ~check_span:(harness "check") op in
          record t_prefix v delta;
          incr n;
          Option.iter
            (fun replay ->
              match harness "replay" (fun () -> replay tr) with
              | counts -> add_counts replay_counts counts
              | exception e ->
                  error (op.label ^ " replay raised " ^ Printexc.to_string e))
            op.replay
        end)
      (harness "round" (fun () -> w.round !r));
    incr r
  done;
  { trace = tr; t_prefix; replay_counts; t_wall = Clock.elapsed_s ~since:start }

(* ------------------------------------------------------------------ *)
(* metrics                                                              *)
(* ------------------------------------------------------------------ *)

let peak_heap_mb () =
  let words = (Gc.quick_stat ()).Gc.top_heap_words in
  float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* Noise on a shared host comes in bursts that slow whole rounds, and
   every round holds the same input mix, so a run keeps the faster half
   of its rounds and reports throughput and op-time percentiles over
   their ops. *)
let end_to_end t ~setup_s =
  let rate r = float_of_int (List.length r.op_s) /. r.wall in
  let by_rate = List.sort (fun a b -> compare (rate b) (rate a)) t.rounds in
  let half = (List.length by_rate + 1) / 2 in
  let kept = List.filteri (fun i _ -> i < half) by_rate in
  let op_s = List.concat_map (fun r -> r.op_s) kept in
  let wall = Stats.sum (List.map (fun r -> r.wall) kept) in
  [
    ("ops_per_s", float_of_int (List.length op_s) /. wall);
    ("op_ms_p50", 1e3 *. Stats.percentile op_s 0.5);
    ("op_ms_p90", 1e3 *. Stats.percentile op_s 0.9);
    ("setup_s", setup_s);
    ("peak_heap_mb", peak_heap_mb ());
  ]

let per_layer w tr =
  let spans = Trace.spans tr.trace in
  let tracing_s = float_of_int (List.length spans) *. Trace.span_cost_s () in
  let counts = counters tr.t_prefix @ bindings tr.replay_counts in
  let count k = float_of_int (Option.value ~default:0 (List.assoc_opt k counts)) in
  let top = List.filter (fun s -> s.Trace.parent = -1) spans in
  [
    ("sim.kernel.events", count "sim.kernel.events");
    ("sim.kernel.activations", count "sim.kernel.activations");
    ("sim.kernel.scheduled", count "sim.kernel.scheduled");
    ("sim.kernel.kernels", count "sim.kernel.kernels");
    ( "sim.kernel.ns_per_event",
      ratio (busy spans *. 1e9) (count "sim.kernel.events") );
    ("unattributed_s", tr.t_wall -. Trace.total top);
    ("trace_overhead", ratio tracing_s (tr.t_wall -. tracing_s));
  ]
  @ w.layers spans ~counts

(* The metrics BENCHMARK.json lists, in its order: a metric this
   workload does not exercise reads 0, and a computed metric missing
   from BENCHMARK.json is an error. *)
let against_spec (specs : Spec.metric list) values =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (m : Spec.metric) -> m.Spec.name = name) specs)
      then error ("metric " ^ name ^ " is not in BENCHMARK.json"))
    values;
  List.map
    (fun (m : Spec.metric) ->
      (m, Option.value ~default:0. (List.assoc_opt m.Spec.name values)))
    specs

let metrics_json l =
  Json.Obj
    (List.map
       (fun ((m : Spec.metric), v) ->
         ( m.Spec.name,
           Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.Spec.unit) ]
         ))
       l)

(* ------------------------------------------------------------------ *)
(* host facts, golden digests, files                                    *)
(* ------------------------------------------------------------------ *)

(* A fixed integer loop, best of five: taken before and after the timed
   phase, it shows host speed drifting between sets of runs. *)
let host_ref_ms () =
  let once () =
    let t0 = Clock.now_ns () in
    let acc = ref 0 in
    for i = 1 to 20_000_000 do
      acc := !acc + (i land 7)
    done;
    ignore (Sys.opaque_identity !acc);
    Clock.elapsed_s ~since:t0 *. 1e3
  in
  List.fold_left Float.min infinity (List.init 5 (fun _ -> once ()))

let golden ~workload ~mode =
  match Json.parse Embedded.golden_json with
  | Error e -> failwith ("golden.json: " ^ e)
  | Ok j ->
      Option.bind (Json.member "digests" j) (fun d ->
          Option.bind (Json.member workload d) (fun w ->
              Option.bind (Json.member mode w) Json.to_str))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path text =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* ------------------------------------------------------------------ *)
(* one workload                                                         *)
(* ------------------------------------------------------------------ *)

let ops t = List.fold_left (fun acc r -> acc + List.length r.op_s) 0 t.rounds

(* Per-layer metrics a workload does not exercise read 0 and are left
   out of the table. *)
let print_table ~name ~seed ~t ~digest ~golden_state rows =
  Printf.eprintf
    "perfbench %s, seed %d: %d ops in %.2f s over %d rounds; digest %s (%s)\n"
    name seed (ops t) t.total_s (List.length t.rounds) digest golden_state;
  List.iter
    (fun ((m : Spec.metric), v) ->
      if v <> 0. || m.Spec.bound <> None then
        Printf.eprintf "  %-34s %14.6g %s\n" m.Spec.name v m.Spec.unit)
    rows;
  flush stderr

(* The traced prefix: per-layer metrics, checked against the untraced
   run, with the Chrome trace written and read back. *)
let traced_layers opts ~name ~mode ~limit ~(t : timed) ~digest =
  let make = List.assoc name makers in
  let w = make ~seed:opts.seed in
  let tr = run_traced w ~limit in
  if digest_of tr.t_prefix <> digest || counters tr.t_prefix <> counters t.prefix
  then error (name ^ ": the traced run's digest or counters differ");
  let file = Printf.sprintf "%s-seed%d-%s.json" name opts.seed mode in
  let path = Filename.concat opts.trace_dir file in
  let meta = [ ("workload", Json.Str name); ("seed", Json.Int opts.seed) ] in
  write_file path (Json.to_string (Trace.to_json tr.trace ~meta));
  (match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok _ -> Printf.eprintf "perfbench: trace written to %s\n" path
  | Error e -> error ("trace file does not parse: " ^ e));
  against_spec Spec.embedded.Spec.per_layer (per_layer w tr)

let report opts ~name ~mode ~t ~digest ~host_ref ~correct metrics =
  let round_json r =
    Json.Obj
      [
        ("ops", Json.Int (List.length r.op_s));
        ("s", Json.Float r.wall);
        ("p50_ms", Json.Float (1e3 *. Stats.percentile r.op_s 0.5));
        ("p90_ms", Json.Float (1e3 *. Stats.percentile r.op_s 0.9));
      ]
  in
  let ints l = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) l) in
  Json.Obj
    [
      ("suite", Json.Str "perfbench");
      ("workload", Json.Str name);
      ("seed", Json.Int opts.seed);
      ("mode", Json.Str mode);
      ("trace", Json.Bool opts.trace);
      ( "host",
        Json.Obj
          [
            ("domains", Json.Int (Domain.recommended_domain_count ()));
            ("ocaml", Json.Str Sys.ocaml_version);
            ("host_ref_ms", Json.List (List.map (fun x -> Json.Float x) host_ref));
          ] );
      ("ops", Json.Int (ops t));
      ("prefix_ops", Json.Int t.prefix_ops);
      ("rounds", Json.List (List.map round_json t.rounds));
      ("digest", Json.Str digest);
      ("counters", ints (counters t.prefix));
      ("correct", Json.Bool correct);
      ("failed", Json.Int !failed);
      ("errors", Json.List (List.rev_map (fun e -> Json.Str e) !errors));
      ("metrics", metrics_json metrics);
    ]

(* Returns whether every check held.  Set-ups run once before the timed
   phase and again between rounds every [setup_every_s]: a burst of host
   noise then slows few of them, and their median is [setup_s]. *)
let run_workload opts name =
  let make = List.assoc name makers in
  let setups = ref [] and last_setup = ref (Clock.now_ns ()) in
  let set_up () =
    setups := setup make ~seed:opts.seed (List.length !setups) :: !setups;
    last_setup := Clock.now_ns ()
  in
  set_up ();
  let between () =
    if Clock.elapsed_s ~since:!last_setup >= setup_every_s then set_up ()
  in
  let ref_start = host_ref_ms () in
  let w = make ~seed:opts.seed in
  let limit = if opts.smoke then Some w.smoke_ops else None in
  let t = run_timed w ~seconds:opts.seconds ~limit ~between in
  let setup_s = Stats.median !setups in
  let e2e = against_spec Spec.embedded.Spec.end_to_end (end_to_end t ~setup_s) in
  let digest = digest_of t.prefix in
  let mode = if opts.smoke then "smoke" else "prefix" in
  let golden_state =
    if opts.seed <> golden_seed then "no golden digest for this seed"
    else
      match golden ~workload:name ~mode with
      | Some d when d = digest -> "matches golden.json"
      | Some d ->
          error
            (Printf.sprintf "%s digest %s differs from golden.json's %s" name
               digest d);
          "DIFFERS from golden.json"
      | None -> "not in golden.json"
  in
  let layers =
    if opts.trace then traced_layers opts ~name ~mode ~limit ~t ~digest else []
  in
  let host_ref = [ ref_start; host_ref_ms () ] in
  let correct = !errors = [] in
  List.iter (fun e -> Printf.eprintf "perfbench: FAILED: %s\n" e) (List.rev !errors);
  print_table ~name ~seed:opts.seed ~t ~digest ~golden_state (e2e @ layers);
  print_endline
    (Json.to_string
       (report opts ~name ~mode ~t ~digest ~host_ref ~correct (e2e @ layers)));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics", metrics_json (if opts.trace then layers else e2e));
          ]));
  correct

(* ------------------------------------------------------------------ *)
(* command line                                                         *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: suite.exe [--workload dse|cosim|fuzz|fault] [--seed N] [--seconds S]\n\
    \                 [--trace 0|1] [--trace-dir DIR] [--smoke]";
  exit 2

let parse_args argv =
  let seconds s =
    match float_of_string_opt s with Some x when x >= 0. -> Some x | _ -> None
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest when List.mem_assoc w makers ->
        go { o with workload = Some w } rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
        go { o with seed = int_of_string n } rest
    | "--seconds" :: s :: rest when seconds s <> None ->
        go { o with seconds = Option.get (seconds s) } rest
    | "--trace" :: (("0" | "1") as b) :: rest -> go { o with trace = b = "1" } rest
    | "--trace-dir" :: d :: rest -> go { o with trace_dir = d } rest
    | "--smoke" :: rest -> go { o with smoke = true; trace = true } rest
    | arg :: _ ->
        Printf.eprintf "suite.exe: bad argument %S\n" arg;
        usage ()
  in
  go
    {
      workload = None;
      seed = golden_seed;
      seconds = float_of_int Spec.embedded.Spec.run_seconds;
      trace = false;
      trace_dir = Filename.concat ".bench_build" "perfbench-traces";
      smoke = false;
    }
    (List.tl (Array.to_list argv))

(* Each workload in a fresh process of its own: set-up time and peak
   heap then belong to that workload alone. *)
let run_each opts =
  let args w =
    [|
      Sys.executable_name; "--workload"; w; "--seed"; string_of_int opts.seed;
      "--seconds"; Printf.sprintf "%g" opts.seconds; "--trace";
      (if opts.trace then "1" else "0"); "--trace-dir"; opts.trace_dir;
    |]
  in
  List.fold_left
    (fun ok w ->
      let pid =
        Unix.create_process Sys.executable_name (args w) Unix.stdin Unix.stdout
          Unix.stderr
      in
      match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> ok | _ -> false)
    true Spec.embedded.Spec.workloads

let () =
  let opts = parse_args Sys.argv in
  let workloads = Spec.embedded.Spec.workloads in
  let ok =
    match opts.workload with
    | Some w -> run_workload opts w
    | None when opts.smoke ->
        let t0 = Clock.now_ns () in
        let ok = List.for_all (run_workload opts) workloads in
        Printf.eprintf "perfbench smoke: %s in %.2f s\n"
          (if ok then "ok" else "FAILED")
          (Clock.elapsed_s ~since:t0);
        ok
    | None -> run_each opts
  in
  exit (if ok then 0 else 1)
