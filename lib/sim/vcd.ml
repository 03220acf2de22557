type watched = { wname : string; width : int; code : string }

type t = {
  kernel : Kernel.t;
  mutable watchlist : watched list;  (** reversed *)
  mutable records : (int * string * int) list;  (** reversed: time, code, v *)
  mutable next_code : int;
}

let create kernel = { kernel; watchlist = []; records = []; next_code = 0 }

(* VCD identifier codes: printable ASCII starting at '!' *)
let code_of_int n =
  let base = 94 and first = 33 in
  let rec go n acc =
    let c = Char.chr (first + (n mod base)) in
    let acc = String.make 1 c ^ acc in
    if n < base then acc else go ((n / base) - 1) acc
  in
  go n ""

let watch t ?(width = 32) (s : int Signal.t) =
  let code = code_of_int t.next_code in
  t.next_code <- t.next_code + 1;
  t.watchlist <- { wname = Signal.name s; width; code } :: t.watchlist;
  (* initial value at watch time *)
  t.records <- (Kernel.now t.kernel, code, Signal.read s) :: t.records;
  Kernel.spawn ~name:("vcd:" ^ Signal.name s) ~daemon:true t.kernel (fun () ->
      let rec follow () =
        let v = Signal.await_change s in
        t.records <- (Kernel.now t.kernel, code, v) :: t.records;
        follow ()
      in
      follow ())

let binary_of ~width v =
  (* values wider than the declared width are masked, not truncated to a
     misleading prefix *)
  let v = if width < Sys.int_size then v land ((1 lsl width) - 1) else v in
  let buf = Bytes.make width '0' in
  for i = 0 to width - 1 do
    if (v lsr i) land 1 = 1 then Bytes.set buf (width - 1 - i) '1'
  done;
  Bytes.to_string buf

let value_change w v =
  if w.width = 1 then Printf.sprintf "%d%s\n" (if v <> 0 then 1 else 0) w.code
  else Printf.sprintf "b%s %s\n" (binary_of ~width:w.width v) w.code

let dump t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "$timescale 1ns $end\n$scope module codesign $end\n";
  let watches = List.rev t.watchlist in
  List.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf "$var wire %d %s %s $end\n" w.width w.code w.wname))
    watches;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  let records = List.rev t.records in
  let watch_of code = List.find (fun w -> w.code = code) watches in
  (* $dumpvars: the initial value of every watched signal (the record
     pushed at watch time), so viewers show defined values from time 0
     instead of 'x' until the first change. *)
  let initials = Hashtbl.create 8 in
  List.iter
    (fun (_, code, v) ->
      if not (Hashtbl.mem initials code) then Hashtbl.add initials code v)
    records;
  Buffer.add_string buf "$dumpvars\n";
  List.iter
    (fun w ->
      match Hashtbl.find_opt initials w.code with
      | Some v -> Buffer.add_string buf (value_change w v)
      | None -> ())
    watches;
  Buffer.add_string buf "$end\n";
  (* change section: everything after each signal's initial record,
     grouped by time *)
  let seen = Hashtbl.create 8 in
  let current_time = ref (-1) in
  List.iter
    (fun (time, code, v) ->
      if not (Hashtbl.mem seen code) then Hashtbl.add seen code ()
      else begin
        if time <> !current_time then begin
          Buffer.add_string buf (Printf.sprintf "#%d\n" time);
          current_time := time
        end;
        Buffer.add_string buf (value_change (watch_of code) v)
      end)
    records;
  Buffer.contents buf
