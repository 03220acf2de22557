type t = {
  counts : int array;
  image : Asm.image;
  mutable total : int;
}

let attach cpu image =
  let t =
    {
      counts = Array.make (Array.length image.Asm.code) 0;
      image;
      total = 0;
    }
  in
  Cpu.on_retire cpu (fun ~pc ~cycles ->
      (* [total] accumulates unconditionally so it tracks [Cpu.cycles]
         exactly — interrupt entry can report the interrupted pc even
         when it is outside the image (e.g. a wild jump); only the
         per-pc histogram needs the bounds guard *)
      t.total <- t.total + cycles;
      if pc >= 0 && pc < Array.length t.counts then
        t.counts.(pc) <- t.counts.(pc) + cycles);
  t

let total_cycles t = t.total

let by_label t =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        let label =
          match Asm.label_of t.image i with
          | Some l -> l
          | None -> "<entry>"
        in
        let cur = try Hashtbl.find tbl label with Not_found -> 0 in
        Hashtbl.replace tbl label (cur + c)
      end)
    t.counts;
  Hashtbl.fold (fun l c acc -> (l, c) :: acc) tbl []
  |> List.sort (fun (la, a) (lb, b) ->
         if a <> b then compare b a else compare la lb)

