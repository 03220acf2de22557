type align = L | R

let fi n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + 4) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf '_';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let ff x = Printf.sprintf "%.2f" x
let fp x = Printf.sprintf "%.1f%%" (100. *. x)

let table ?title ~headers ?align rows =
  let ncols = List.length headers in
  let align =
    match align with
    | Some a -> a
    | None -> L :: List.init (max 0 (ncols - 1)) (fun _ -> R)
  in
  let pad_row r =
    let len = List.length r in
    if len >= ncols then r
    else r @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map pad_row rows in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i < ncols && String.length cell > widths.(i) then
            widths.(i) <- String.length cell)
        row)
    (headers :: rows);
  let render_cell i cell =
    let w = widths.(i) in
    let a = try List.nth align i with _ -> R in
    match a with
    | L -> Printf.sprintf "%-*s" w cell
    | R -> Printf.sprintf "%*s" w cell
  in
  let render_row row =
    "| " ^ String.concat " | " (List.mapi render_cell row) ^ " |"
  in
  let rule =
    "+"
    ^ String.concat "+"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  let buf = Buffer.create 512 in
  (match title with
  | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf '\n'
  | None -> ());
  Buffer.add_string buf (rule ^ "\n");
  Buffer.add_string buf (render_row headers ^ "\n");
  Buffer.add_string buf (rule ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (render_row r ^ "\n")) rows;
  Buffer.add_string buf (rule ^ "\n");
  Buffer.contents buf
