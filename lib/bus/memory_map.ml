type handlers = {
  dev_read : int -> int;
  dev_write : int -> int -> unit;
  wait_states : int -> int;
}

type region_kind = Ram of int array | Rom of int array | Device of handlers
type region = { name : string; base : int; size : int; kind : region_kind }
type t = { sorted : region array }

let create regions =
  List.iter
    (fun r ->
      if r.size <= 0 then
        invalid_arg ("Memory_map: empty region " ^ r.name);
      if r.base < 0 then
        invalid_arg ("Memory_map: negative base for " ^ r.name);
      match r.kind with
      | Ram a | Rom a ->
          if Array.length a <> r.size then
            invalid_arg
              ("Memory_map: backing array size mismatch for " ^ r.name)
      | Device _ -> ())
    regions;
  let sorted =
    Array.of_list (List.sort (fun a b -> compare a.base b.base) regions)
  in
  Array.iteri
    (fun i r ->
      if i > 0 then begin
        let prev = sorted.(i - 1) in
        if prev.base + prev.size > r.base then
          invalid_arg
            (Printf.sprintf "Memory_map: regions %s and %s overlap" prev.name
               r.name)
      end)
    sorted;
  { sorted }

let decode t addr =
  (* binary search for the region containing addr *)
  let lo = ref 0 and hi = ref (Array.length t.sorted - 1) in
  let found = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = t.sorted.(mid) in
    if addr < r.base then hi := mid - 1
    else if addr >= r.base + r.size then lo := mid + 1
    else begin
      found := Some (r, addr - r.base);
      lo := !hi + 1
    end
  done;
  !found

(* one line of mapped windows so a decode miss is debuggable from the
   message alone *)
let describe_windows t =
  if Array.length t.sorted = 0 then "no mapped regions"
  else
    String.concat ", "
      (Array.to_list
         (Array.map
            (fun r ->
              Printf.sprintf "%s [0x%x..0x%x]" r.name r.base
                (r.base + r.size - 1))
            t.sorted))

let unmapped t what addr =
  invalid_arg
    (Printf.sprintf "Memory_map.%s: unmapped address %d (0x%x); mapped: %s"
       what addr addr (describe_windows t))

let read t addr =
  match decode t addr with
  | None -> unmapped t "read" addr
  | Some (r, off) -> (
      match r.kind with
      | Ram a | Rom a -> a.(off)
      | Device h -> h.dev_read off)

let write t addr v =
  match decode t addr with
  | None -> unmapped t "write" addr
  | Some (r, off) -> (
      match r.kind with
      | Ram a -> a.(off) <- v
      | Rom _ ->
          invalid_arg
            (Printf.sprintf "Memory_map.write: write to ROM %s" r.name)
      | Device h -> h.dev_write off v)

let wait_states t addr =
  match decode t addr with
  | Some ({ kind = Device h; _ }, off) -> h.wait_states off
  | _ -> 0

(* The backing array of every RAM and ROM region, in address order:
   a region's position in that order is what ties it to its copy, so two
   regions with the same name restore to their own places. *)
type snap = (string * int array) array

let memories t =
  Array.of_list
    (List.filter_map
       (fun r ->
         match r.kind with
         | Ram a | Rom a -> Some (r.name, a)
         | Device _ -> None)
       (Array.to_list t.sorted))

let snapshot t = Array.map (fun (name, a) -> (name, Array.copy a)) (memories t)

let restore t s =
  let live = memories t in
  (* check the whole shape first, so a rejected snapshot writes nothing *)
  Array.iteri
    (fun i (name, saved) ->
      let fits =
        i < Array.length live
        &&
        let live_name, a = live.(i) in
        live_name = name && Array.length a = Array.length saved
      in
      if not fits then
        invalid_arg ("Memory_map.restore: no matching memory region " ^ name))
    s;
  if Array.length live > Array.length s then
    invalid_arg
      ("Memory_map.restore: memory region " ^ fst live.(Array.length s)
     ^ " is not in the snapshot");
  Array.iteri
    (fun i (_, saved) ->
      Array.blit saved 0 (snd live.(i)) 0 (Array.length saved))
    s

let ram ~name ~base ~size = { name; base; size; kind = Ram (Array.make size 0) }
let rom ~name ~base data =
  { name; base; size = Array.length data; kind = Rom data }

let device ~name ~base ~size handlers =
  { name; base; size; kind = Device handlers }

let simple_handlers ?(wait_states = fun _ -> 0) dev_read dev_write =
  { dev_read; dev_write; wait_states }
