module K = Codesign_sim.Kernel

type failure = { index : int; task : string; message : string }

exception Worker_error of failure list

let () =
  Printexc.register_printer (function
    | Worker_error failures ->
        let one { index; task; message } =
          Printf.sprintf "task %d%s: %s" index
            (if task = "" then "" else Printf.sprintf " %S" task)
            message
        in
        Some
          (Printf.sprintf "Domain_pool.Worker_error(%s)"
             (String.concat "; " (List.map one failures)))
    | _ -> None)

let default_jobs () = max 1 (Domain.recommended_domain_count ())

let map ?jobs ?(name = fun _ -> "") f tasks =
  let n = Array.length tasks in
  let jobs =
    min (max 1 (match jobs with Some j -> j | None -> default_jobs ())) (max 1 n)
  in
  let results = Array.make n None in
  let run i =
    results.(i) <-
      Some
        (match f tasks.(i) with
        | r -> Ok r
        | exception e ->
            Error { index = i; task = name i; message = Printexc.to_string e })
  in
  if jobs <= 1 then
    for i = 0 to n - 1 do
      run i
    done
  else begin
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        run i;
        worker ()
      end
    in
    (* Helpers return the kernel-counter delta their tasks contributed;
       the caller folds each one into its own domain totals after the
       join, so measurement wrappers see jobs-independent totals. *)
    let helper () =
      let before = K.domain_totals () in
      worker ();
      K.diff_totals ~after:(K.domain_totals ()) ~before
    in
    let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn helper) in
    worker ();
    List.iter (fun d -> K.merge_domain_totals (Domain.join d)) helpers
  end;
  let failures =
    Array.to_list results
    |> List.filter_map (function Some (Error f) -> Some f | _ -> None)
  in
  if failures <> [] then raise (Worker_error failures);
  Array.map (function Some (Ok r) -> r | _ -> assert false) results
