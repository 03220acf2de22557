module B = Codesign_ir.Behavior
module Pn = Codesign_ir.Process_network

let i k = B.Int k
let v x = B.Var x
let ( +: ) a b = B.Bin (B.Add, a, b)
let ( *: ) a b = B.Bin (B.Mul, a, b)
let ( >>: ) a b = B.Bin (B.Shr, a, b)
let ( %: ) a b = B.Bin (B.Rem, a, b)
let ( -: ) a b = B.Bin (B.Sub, a, b)

let sample_expr idx = ((idx *: i 7) %: i 23) -: i 5

let producer ?(name = "producer") ~chan ~count () =
  {
    B.name;
    params = [];
    arrays = [];
    results = [];
    body =
      [ B.For ("p", i 0, i count, [ B.Send (chan, sample_expr (v "p")) ]) ];
  }

(* one MAC-ish round: acc = (acc * 3 + x) >> 1, iterated [work] times *)
let transform ?(name = "transform") ~in_chan ~out_chan ~count ?(work = 8) ()
    =
  {
    B.name;
    params = [];
    arrays = [];
    results = [];
    body =
      [
        B.For
          ( "p",
            i 0,
            i count,
            [
              B.Recv ("x", in_chan);
              B.Assign ("acc", v "x");
              B.For
                ( "w",
                  i 0,
                  i work,
                  [ B.Assign ("acc", ((v "acc" *: i 3) +: v "x") >>: i 1) ]
                );
              B.Send (out_chan, v "acc");
            ] );
      ];
  }

let consumer ?(name = "consumer") ~chan ~count ~port () =
  {
    B.name;
    params = [];
    arrays = [];
    results = [ "acc" ];
    body =
      [
        B.Assign ("acc", i 0);
        B.For
          ( "p",
            i 0,
            i count,
            [ B.Recv ("x", chan); B.Assign ("acc", v "acc" +: v "x") ] );
        B.PortOut (port, v "acc");
      ];
  }

let pipeline ?(stages = 2) ?(count = 16) ?(work = 8) () =
  if stages < 1 then invalid_arg "Apps.pipeline: stages < 1";
  let chan k = Printf.sprintf "c%d" k in
  let procs =
    (producer ~chan:(chan 0) ~count (), Pn.Sw)
    :: List.init stages (fun s ->
           ( transform
               ~name:(Printf.sprintf "stage%d" s)
               ~in_chan:(chan s)
               ~out_chan:(chan (s + 1))
               ~count ~work (),
             Pn.Sw ))
    @ [ (consumer ~chan:(chan stages) ~count ~port:1 (), Pn.Sw) ]
  in
  let channels =
    List.init (stages + 1) (fun k ->
        {
          Pn.cname = chan k;
          src = (if k = 0 then "producer" else Printf.sprintf "stage%d" (k - 1));
          dst =
            (if k = stages then "consumer" else Printf.sprintf "stage%d" k);
          depth = 2;
          latency = 0;
        })
  in
  Pn.make ~name:"pipeline" procs channels

let fork_join ?(workers = 3) ?(items = 12) ?(work = 16) () =
  if workers < 1 then invalid_arg "Apps.fork_join: workers < 1";
  let per_worker = items / workers in
  if per_worker * workers <> items then
    invalid_arg "Apps.fork_join: items must divide evenly among workers";
  let in_chan w = Printf.sprintf "w%d_in" w in
  let out_chan w = Printf.sprintf "w%d_out" w in
  (* splitter: round-robin distribution *)
  let splitter =
    {
      B.name = "splitter";
      params = [];
      arrays = [];
      results = [];
      body =
        [
          B.For
            ( "r",
              i 0,
              i per_worker,
              List.init workers (fun w ->
                  B.Send
                    ( in_chan w,
                      sample_expr ((v "r" *: i workers) +: i w) )) );
        ];
    }
  in
  let worker w =
    transform
      ~name:(Printf.sprintf "worker%d" w)
      ~in_chan:(in_chan w) ~out_chan:(out_chan w) ~count:per_worker ~work ()
  in
  let joiner =
    {
      B.name = "joiner";
      params = [];
      arrays = [];
      results = [ "acc" ];
      body =
        [
          B.Assign ("acc", i 0);
          B.For
            ( "r",
              i 0,
              i per_worker,
              List.concat
                (List.init workers (fun w ->
                     [
                       B.Recv ("x", out_chan w);
                       B.Assign ("acc", v "acc" +: v "x");
                     ])) );
          B.PortOut (1, v "acc");
        ];
    }
  in
  let procs =
    (splitter, Pn.Sw)
    :: List.init workers (fun w -> (worker w, Pn.Hw))
    @ [ (joiner, Pn.Sw) ]
  in
  let channels =
    List.concat
      (List.init workers (fun w ->
           [
             {
               Pn.cname = in_chan w;
               src = "splitter";
               dst = Printf.sprintf "worker%d" w;
               depth = 2;
               latency = 0;
             };
             {
               Pn.cname = out_chan w;
               src = Printf.sprintf "worker%d" w;
               dst = "joiner";
               depth = 2;
               latency = 0;
             };
           ]))
  in
  Pn.make ~name:"fork_join" procs channels

(* A wide N-stage x M-lane pipeline mesh.  Every lane runs the same
   producer -> stage^N -> consumer chain, but each hop rotates one lane
   to the left, so all lanes are woven into a single connected network —
   partitioning it by lane actually exercises cross-partition traffic on
   every hop.  Hops are latency channels (delay lines), giving a
   partitioned run [hop_latency] of lookahead per link; because every
   producer emits the identical sample stream and the rotation is a
   permutation, each consumer still accumulates exactly the serial
   pipeline's total. *)
let mesh ?(stages = 3) ?(lanes = 4) ?(count = 16) ?(work = 8)
    ?(hop_latency = 4) () =
  if stages < 1 then invalid_arg "Apps.mesh: stages < 1";
  if lanes < 1 then invalid_arg "Apps.mesh: lanes < 1";
  if hop_latency < 1 then invalid_arg "Apps.mesh: hop_latency < 1";
  let chan s l = Printf.sprintf "c%d_%d" s l in
  let stage_name s l = Printf.sprintf "s%d_%d" s l in
  let producer_name l = Printf.sprintf "producer%d" l in
  let consumer_name l = Printf.sprintf "consumer%d" l in
  let procs =
    List.init lanes (fun l ->
        (producer ~name:(producer_name l) ~chan:(chan 0 l) ~count (), Pn.Hw))
    @ List.concat
        (List.init stages (fun s ->
             List.init lanes (fun l ->
                 ( transform ~name:(stage_name s l) ~in_chan:(chan s l)
                     ~out_chan:(chan (s + 1) ((l + 1) mod lanes))
                     ~count ~work (),
                   Pn.Hw ))))
    @ List.init lanes (fun l ->
          ( consumer ~name:(consumer_name l) ~chan:(chan stages l) ~count
              ~port:1 (),
            Pn.Hw ))
  in
  let channels =
    List.concat
      (List.init (stages + 1) (fun s ->
           List.init lanes (fun l ->
               let src =
                 if s = 0 then producer_name l
                 else stage_name (s - 1) ((l - 1 + lanes) mod lanes)
               in
               let dst =
                 if s = stages then consumer_name l else stage_name s l
               in
               {
                 Pn.cname = chan s l;
                 src;
                 dst;
                 depth = 2;
                 latency = hop_latency;
               })))
  in
  Pn.make ~name:"mesh" procs channels

(* Lane-based partition map for {!mesh}: every process of lane [l] goes
   to partition [l mod partitions], so each inter-stage hop (which
   rotates lanes) crosses a boundary whenever partitions > 1. *)
let mesh_partition ?(stages = 3) ?(lanes = 4) ~partitions () =
  if partitions < 1 then invalid_arg "Apps.mesh_partition: partitions < 1";
  let part l = l mod partitions in
  List.init lanes (fun l -> (Printf.sprintf "producer%d" l, part l))
  @ List.concat
      (List.init stages (fun s ->
           List.init lanes (fun l -> (Printf.sprintf "s%d_%d" s l, part l))))
  @ List.init lanes (fun l -> (Printf.sprintf "consumer%d" l, part l))

let expected_pipeline_output ~count ~work ~stages =
  let transform_item x =
    let acc = ref x in
    for _ = 1 to work do
      acc := ((!acc * 3) + x) asr 1
    done;
    !acc
  in
  let rec through n x = if n = 0 then x else through (n - 1) (transform_item x) in
  let total = ref 0 in
  for p = 0 to count - 1 do
    total := !total + through stages ((p * 7 mod 23) - 5)
  done;
  !total
