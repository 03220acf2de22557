type t = {
  n : int;
  succs : int list array; (* stored reversed at build, then re-reversed *)
  preds : int list array;
}

let create ~n ~edges =
  if n < 0 then invalid_arg "Graph_algo.create: negative node count";
  let succs = Array.make (max n 1) [] and preds = Array.make (max n 1) [] in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Graph_algo.create: edge (%d,%d) outside [0,%d)" u v
             n);
      succs.(u) <- v :: succs.(u);
      preds.(v) <- u :: preds.(v))
    edges;
  for i = 0 to n - 1 do
    succs.(i) <- List.rev succs.(i);
    preds.(i) <- List.rev preds.(i)
  done;
  { n; succs; preds }

let succ g u = g.succs.(u)
let in_degree g u = List.length g.preds.(u)

module Iheap = struct
  (* Minimal int min-heap for deterministic Kahn ordering. *)
  type h = { mutable a : int array; mutable len : int }

  let make () = { a = Array.make 16 0; len = 0 }

  let push h x =
    if h.len = Array.length h.a then begin
      let a' = Array.make (2 * h.len) 0 in
      Array.blit h.a 0 a' 0 h.len;
      h.a <- a'
    end;
    h.a.(h.len) <- x;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      h.a.(p) > h.a.(!i)
    do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.a.(0) in
      h.len <- h.len - 1;
      h.a.(0) <- h.a.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < h.len && h.a.(l) < h.a.(!m) then m := l;
        if r < h.len && h.a.(r) < h.a.(!m) then m := r;
        if !m = !i then continue := false
        else begin
          let tmp = h.a.(!m) in
          h.a.(!m) <- h.a.(!i);
          h.a.(!i) <- tmp;
          i := !m
        end
      done;
      Some top
    end
end

let topo_sort g =
  let indeg = Array.init g.n (fun i -> in_degree g i) in
  let heap = Iheap.make () in
  for i = 0 to g.n - 1 do
    if indeg.(i) = 0 then Iheap.push heap i
  done;
  let order = ref [] and count = ref 0 in
  let rec loop () =
    match Iheap.pop heap with
    | None -> ()
    | Some u ->
        order := u :: !order;
        incr count;
        List.iter
          (fun v ->
            indeg.(v) <- indeg.(v) - 1;
            if indeg.(v) = 0 then Iheap.push heap v)
          g.succs.(u);
        loop ()
  in
  loop ();
  if !count = g.n then Some (List.rev !order) else None

let is_dag g = topo_sort g <> None

let require_topo g name =
  match topo_sort g with
  | Some o -> o
  | None -> invalid_arg (name ^ ": graph is cyclic")

let longest_path g ~weight =
  let order = require_topo g "Graph_algo.longest_path" in
  let dist = Array.make g.n 0 in
  List.iter
    (fun u ->
      let best_pred =
        List.fold_left (fun acc p -> max acc dist.(p)) 0 g.preds.(u)
      in
      dist.(u) <- best_pred + weight u)
    order;
  dist

let critical_path g ~weight =
  if g.n = 0 then ([], 0)
  else begin
    let dist = longest_path g ~weight in
    let last = ref 0 in
    for i = 1 to g.n - 1 do
      if dist.(i) > dist.(!last) then last := i
    done;
    (* Walk backwards: dist u = (max over preds of dist) + weight u, so the
       predecessor with maximal dist always lies on a realising path. *)
    let rec walk u acc =
      let acc = u :: acc in
      match g.preds.(u) with
      | [] -> acc
      | p0 :: rest ->
          let best =
            List.fold_left (fun b p -> if dist.(p) > dist.(b) then p else b)
              p0 rest
          in
          walk best acc
    in
    (walk !last [], dist.(!last))
  end
