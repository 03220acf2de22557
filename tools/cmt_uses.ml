(* Print, for each typed implementation (.cmt) named on the command
   line, the declared values it uses and the optional arguments each of
   its calls passes.  tools/api_scan.py reads the output.

   Output, one record a line, per .cmt:

     unit SOURCE                 the unit's source file
     def START END NAME          a structure-level value of SOURCE
                                 (byte offsets of its pattern, NAME
                                 qualified by enclosing modules)
     ref FILE OFFSET             a use of the value declared at byte
                                 OFFSET of FILE (once per unit)
     app FILE OFFSET LABELS      a call of that value passing the
                                 comma-separated optional LABELS (calls
                                 that pass none are not printed)

   A call that leaves an optional argument out still carries it in the
   typedtree: the type checker fills it with a [None] at a ghost
   location.  Only arguments the source wrote count as passed. *)

open Typedtree

let omitted e =
  match e.exp_desc with
  | Texp_construct (_, { Types.cstr_name = "None"; _ }, []) ->
      e.exp_loc.Location.loc_ghost
  | _ -> false

let passed args =
  List.filter_map
    (function
      | Asttypes.Optional l, Some e when not (omitted e) -> Some l
      | _ -> None)
    args

let declared (vd : Types.value_description) =
  let p = vd.val_loc.loc_start in
  (p.pos_fname, p.pos_cnum)

let iterator seen =
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) ->
        let d = declared vd in
        if not (Hashtbl.mem seen d) then begin
          Hashtbl.add seen d ();
          Printf.printf "ref %s %d\n" (fst d) (snd d)
        end
    | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) -> (
        match passed args with
        | [] -> ()
        | ls ->
            let file, offset = declared vd in
            Printf.printf "app %s %d %s\n" file offset (String.concat "," ls))
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  { Tast_iterator.default_iterator with expr }

(* Structure-level values, named by their module path in the file. *)
let rec defs prefix (str : structure) =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let l = vb.vb_pat.pat_loc in
              List.iter
                (fun id ->
                  Printf.printf "def %d %d %s%s\n" l.loc_start.pos_cnum
                    l.loc_end.pos_cnum prefix (Ident.name id))
                (let_bound_idents [ vb ]))
            vbs
      | Tstr_module { mb_name = { txt = Some name; _ }; mb_expr; _ } ->
          module_defs (prefix ^ name ^ ".") mb_expr
      | _ -> ())
    str.str_items

and module_defs prefix me =
  match me.mod_desc with
  | Tmod_structure str -> defs prefix str
  | Tmod_constraint (me, _, _, _) -> module_defs prefix me
  | _ -> ()

let () =
  for i = 1 to Array.length Sys.argv - 1 do
    let cmt = Cmt_format.read_cmt Sys.argv.(i) in
    match (cmt.cmt_annots, cmt.cmt_sourcefile) with
    | Cmt_format.Implementation str, Some src ->
        Printf.printf "unit %s\n" src;
        defs "" str;
        let it = iterator (Hashtbl.create 256) in
        it.structure it str
    | _ -> ()
  done
