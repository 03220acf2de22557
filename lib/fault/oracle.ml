module B = Codesign_ir.Behavior
module Rng = Codesign_ir.Rng
module K = Codesign_sim.Kernel
module FR = Codesign_obs.Fault_report

(* ------------------------------------------------------------------ *)
(* campaign-cell properties                                            *)
(* ------------------------------------------------------------------ *)

let cell_invariant (c : FR.cell) =
  if c.FR.faulted_ops > c.FR.ops then
    Some
      (Printf.sprintf "%s: faulted_ops %d > ops %d" c.FR.mechanism
         c.FR.faulted_ops c.FR.ops)
  else if c.FR.lost_ops > c.FR.faulted_ops then
    Some
      (Printf.sprintf "%s: lost_ops %d > faulted_ops %d" c.FR.mechanism
         c.FR.lost_ops c.FR.faulted_ops)
  else if c.FR.recovered_ops <> c.FR.faulted_ops - c.FR.lost_ops then
    Some (Printf.sprintf "%s: recovered_ops inconsistent" c.FR.mechanism)
  else if c.FR.recovery_rate < 0.0 || c.FR.recovery_rate > 1.0 then
    Some
      (Printf.sprintf "%s: recovery_rate %g outside [0,1]" c.FR.mechanism
         c.FR.recovery_rate)
  else if c.FR.rate = 0.0 && (c.FR.lost_ops > 0 || not c.FR.checksum_ok) then
    Some
      (Printf.sprintf "%s: losses at fault rate 0 (lost=%d checksum_ok=%b)"
         c.FR.mechanism c.FR.lost_ops c.FR.checksum_ok)
  else None

(* Fork = rerun at a random budget: both engines sweep one drawn grid
   and must give equal cell lists, degraded cells included; every cell
   that completed must satisfy [cell_invariant]. *)
let check_campaign rng =
  let seed = Rng.int rng 1_000_000 in
  let ops = Rng.int_in rng 8 63 in
  let warmup = Rng.int_in rng 0 63 in
  let cell_fuel =
    if Rng.bool rng then None else Some (Rng.int_in rng 200 4_999)
  in
  let max_retries = Rng.int_in rng 0 2 in
  let chaos, chaos_name =
    Rng.pick rng
      [
        (None, "none");
        (Some Campaign.Chaos_trap, "trap");
        (Some Campaign.Chaos_hang, "hang");
      ]
  in
  let sweep engine =
    Campaign.sweep ~seed ~ops ~warmup ~max_retries ?cell_fuel ?chaos engine
  in
  let fork = sweep Campaign.Fork in
  match
    List.find_opt
      (fun (f, r) -> f <> r)
      (List.combine fork (sweep Campaign.Rerun))
  with
  | Some ((c : FR.cell), _) ->
      Some
        (Printf.sprintf
           "fork and rerun differ at %s rate %g (seed=%d ops=%d warmup=%d \
            cell_fuel=%s max_retries=%d chaos=%s)"
           c.FR.mechanism c.FR.rate seed ops warmup
           (Option.fold ~none:"default" ~some:string_of_int cell_fuel)
           max_retries chaos_name)
  | None ->
      List.find_map cell_invariant
        (List.filter (fun (c : FR.cell) -> c.FR.degraded = None) fork)

(* ------------------------------------------------------------------ *)
(* fault-injected transport of a generated behaviour's output trace    *)
(* ------------------------------------------------------------------ *)

let check_transport ~seed (p : B.proc) =
  let io, outs = B.collecting_io () in
  match B.run ~io ~fuel:300_000 p [] with
  | exception Invalid_argument _ ->
      (* fuel exhaustion / unbound arrays: vacuously agreeing, like
         Diff.check_behavior *)
      None
  | _ ->
      (* newest-first accumulator -> program order; cap the trace so one
         output-heavy behaviour cannot dominate a fuzz run *)
      let rec take n = function
        | x :: xs when n > 0 -> x :: take (n - 1) xs
        | _ -> []
      in
      let reference = take 400 (List.rev !outs) in
      let rng = Rng.create seed in
      let rate = Rng.pick rng [ 0.02; 0.08; 0.15 ] in
      let k = K.create () in
      let inj = Injector.create ~rate ~seed:(Rng.int rng 1_000_000) () in
      let rel = Faulty_chan.create k inj in
      let received = ref [] in
      let sent = ref 0 in
      K.spawn ~name:"transport.rx" k (fun () ->
          let rec loop () =
            match Faulty_chan.recv rel with
            | Some (_, v) ->
                received := v :: !received;
                loop ()
            | None -> ()
          in
          loop ());
      K.spawn ~name:"transport.tx" k (fun () ->
          List.iteri
            (fun j (port, v) ->
              (* each (port, value) pair travels as two tokens *)
              if Faulty_chan.send rel ~idx:(2 * j) port then incr sent;
              if Faulty_chan.send rel ~idx:((2 * j) + 1) v then incr sent)
            reference;
          Faulty_chan.close rel);
      ignore (K.run ~bound:(K.Until 50_000_000) k);
      let flat =
        List.concat_map (fun (port, v) -> [ port; v ]) reference
      in
      let got = List.rev !received in
      if !sent <> List.length flat then
        Some
          (Printf.sprintf
             "ARQ gave up under rate %g: sent %d of %d tokens (seed %d)" rate
             !sent (List.length flat) seed)
      else if got <> flat then
        Some
          (Printf.sprintf
             "fault-injected transport diverged: %d tokens arrived, %d sent, \
              first mismatch at %d (rate %g, seed %d)"
             (List.length got) (List.length flat)
             (let rec first i = function
                | [], [] -> -1
                | x :: xs, y :: ys -> if x = y then first (i + 1) (xs, ys) else i
                | _ -> i
              in
              first 0 (got, flat))
             rate seed)
      else None
