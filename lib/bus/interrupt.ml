let lines = 8

type t = {
  mutable pending_mask : int;
  mutable enable_mask : int;
  mutable change_cb : (bool -> unit) option;
}

let create () =
  {
    pending_mask = 0;
    enable_mask = (1 lsl lines) - 1;
    change_cb = None;
  }

let cpu_level t = t.pending_mask land t.enable_mask <> 0

let notify t before =
  let after = cpu_level t in
  if before <> after then
    match t.change_cb with Some cb -> cb after | None -> ()

let check_line l =
  if l < 0 || l >= lines then
    invalid_arg (Printf.sprintf "Interrupt: line %d out of range" l)

let raise_line t l =
  check_line l;
  let before = cpu_level t in
  t.pending_mask <- t.pending_mask lor (1 lsl l);
  notify t before

let ack t l =
  check_line l;
  let before = cpu_level t in
  t.pending_mask <- t.pending_mask land lnot (1 lsl l);
  notify t before

let pending t = t.pending_mask

let current t =
  let masked = t.pending_mask land t.enable_mask in
  if masked = 0 then -1
  else begin
    let l = ref 0 in
    while (masked lsr !l) land 1 = 0 do
      incr l
    done;
    !l
  end

let set_mask t m =
  let before = cpu_level t in
  t.enable_mask <- m land ((1 lsl lines) - 1);
  notify t before

let on_change t cb = t.change_cb <- Some cb

let region ~name ~base t =
  let dev_read off =
    match off with
    | 0 -> t.pending_mask
    | 2 -> t.enable_mask
    | 3 -> current t
    | _ -> 0
  in
  let dev_write off v =
    match off with
    | 1 ->
        let before = cpu_level t in
        t.pending_mask <- t.pending_mask land lnot v;
        notify t before
    | 2 -> set_mask t v
    | _ -> ()
  in
  Memory_map.device ~name ~base ~size:4
    (Memory_map.simple_handlers dev_read dev_write)
