module B = Codesign_ir.Behavior

(* expression shorthands *)
let i k = B.Int k
let v x = B.Var x
let ( +: ) a b = B.Bin (B.Add, a, b)
let ( -: ) a b = B.Bin (B.Sub, a, b)
let ( *: ) a b = B.Bin (B.Mul, a, b)
let ( >>: ) a b = B.Bin (B.Shr, a, b)
let ( &&: ) a b = B.Bin (B.And, a, b)
let ( ^: ) a b = B.Bin (B.Xor, a, b)
let ( <: ) a b = B.Bin (B.Lt, a, b)
let idx a e = B.Idx (a, e)
let set x e = B.Assign (x, e)
let for_ x lo hi body = B.For (x, lo, hi, body)

let fir () =
  let taps = 8 in
  {
    B.name = "fir";
    params = [ "n" ];
    arrays = [ ("x", 64); ("h", taps) ];
    results = [ "y" ];
    body =
      [
        set "y" (i 0);
        for_ "p" (i (taps - 1)) (v "n")
          [
            set "acc" (i 0);
            for_ "j" (i 0) (i taps)
              [
                set "acc"
                  (v "acc"
                  +: (idx "h" (v "j") *: idx "x" (v "p" -: v "j")));
              ];
            set "y" (v "y" +: (v "acc" >>: i 4));
          ];
      ];
  }

let iir_biquad () =
  {
    B.name = "iir_biquad";
    params = [ "n" ];
    arrays = [ ("x", 64) ];
    results = [ "y" ];
    body =
      [
        set "x1" (i 0); set "x2" (i 0); set "y1" (i 0); set "y2" (i 0);
        set "y" (i 0);
        for_ "p" (i 0) (v "n")
          [
            set "xi" (idx "x" (v "p"));
            set "acc"
              (((i 64 *: v "xi") +: (i 128 *: v "x1") +: (i 64 *: v "x2")
               +: (i 90 *: v "y1") -: (i 40 *: v "y2"))
              >>: i 8);
            set "x2" (v "x1");
            set "x1" (v "xi");
            set "y2" (v "y1");
            set "y1" (v "acc");
            set "y" (v "y" +: v "acc");
          ];
      ];
  }

(* integer DCT-II coefficients, round(cos((2j+1)k pi / 16) * 64) *)
let dct_coeffs =
  Array.init 8 (fun k ->
      Array.init 8 (fun j ->
          let c =
            cos (float_of_int ((2 * j) + 1) *. float_of_int k
                 *. Float.pi /. 16.0)
          in
          int_of_float (Float.round (c *. 64.0))))

let dct8 () =
  let xs = List.init 8 (fun j -> Printf.sprintf "x%d" j) in
  let body =
    List.init 8 (fun k ->
        let terms =
          List.mapi
            (fun j x ->
              let c = dct_coeffs.(k).(j) in
              i c *: v x)
            xs
        in
        let sum =
          match terms with
          | t :: rest -> List.fold_left ( +: ) t rest
          | [] -> i 0
        in
        set (Printf.sprintf "y%d" k) (sum >>: i 6))
  in
  {
    B.name = "dct8";
    params = xs;
    arrays = [];
    results = List.init 8 (fun k -> Printf.sprintf "y%d" k);
    body;
  }

let crc32 () =
  let len = 8 in
  {
    B.name = "crc32";
    params = [];
    arrays = [ ("data", len) ];
    results = [ "crc" ];
    body =
      [
        set "crc" (i 0xFFFFFFFF);
        for_ "p" (i 0) (i len)
          [
            set "crc" (v "crc" ^: idx "data" (v "p"));
            for_ "b" (i 0) (i 8)
              [
                set "mask" (B.Neg (v "crc" &&: i 1));
                set "crc"
                  ((v "crc" >>: i 1) ^: (i 0xEDB88320 &&: v "mask"));
              ];
          ];
      ];
  }

let matmul () =
  let dim = 3 in
  let d2 = dim * dim in
  {
    B.name = "matmul";
    params = [];
    arrays = [ ("a", d2); ("b", d2); ("c", d2) ];
    results = [ "checksum" ];
    body =
      [
        for_ "r" (i 0) (i dim)
          [
            for_ "col" (i 0) (i dim)
              [
                set "acc" (i 0);
                for_ "k" (i 0) (i dim)
                  [
                    set "acc"
                      (v "acc"
                      +: (idx "a" ((v "r" *: i dim) +: v "k")
                         *: idx "b" ((v "k" *: i dim) +: v "col")));
                  ];
                B.Store ("c", (v "r" *: i dim) +: v "col", v "acc");
              ];
          ];
        set "checksum" (i 0);
        for_ "p" (i 0) (i d2)
          [ set "checksum" (v "checksum" +: idx "c" (v "p")) ];
      ];
  }

let dot_product () =
  {
    B.name = "dot";
    params = [ "n" ];
    arrays = [ ("a", 64); ("b", 64) ];
    results = [ "acc" ];
    body =
      [
        set "acc" (i 0);
        for_ "p" (i 0) (v "n")
          [ set "acc" (v "acc" +: (idx "a" (v "p") *: idx "b" (v "p"))) ];
      ];
  }

let histogram () =
  let bins = 8 in
  {
    B.name = "histogram";
    params = [ "n" ];
    arrays = [ ("data", 64); ("h", bins) ];
    results = [ "peak" ];
    body =
      [
        for_ "p" (i 0) (v "n")
          [
            set "slot" (idx "data" (v "p") &&: i (bins - 1));
            B.Store ("h", v "slot", idx "h" (v "slot") +: i 1);
          ];
        set "peak" (i 0);
        for_ "p" (i 0) (i bins)
          [
            B.If
              ( v "peak" <: idx "h" (v "p"),
                [ set "peak" (idx "h" (v "p")) ],
                [] );
          ];
      ];
  }

let saturating_scale () =
  {
    B.name = "saturating_scale";
    params = [ "n"; "k" ];
    arrays = [ ("x", 64) ];
    results = [ "clipped"; "sum" ];
    body =
      [
        set "clipped" (i 0);
        set "sum" (i 0);
        for_ "p" (i 0) (v "n")
          [
            set "val" ((idx "x" (v "p") *: v "k") >>: i 4);
            B.If
              ( i 127 <: v "val",
                [ set "val" (i 127); set "clipped" (v "clipped" +: i 1) ],
                [] );
            B.If
              ( v "val" <: i (-128),
                [ set "val" (i (-128)); set "clipped" (v "clipped" +: i 1) ],
                [] );
            set "sum" (v "sum" +: v "val");
          ];
      ];
  }

let all =
  let arr name values =
    List.mapi (fun j x -> (Printf.sprintf "%s[%d]" name j, x)) values
  in
  let ramp n = List.init n (fun j -> ((j * 7) mod 23) - 5) in
  [
    ( "fir",
      fir (),
      [ ("n", 32) ]
      @ arr "x" (ramp 64)
      @ arr "h" [ 1; 3; 5; 7; 7; 5; 3; 1 ] );
    ("iir_biquad", iir_biquad (), [ ("n", 32) ] @ arr "x" (ramp 64));
    ( "dct8",
      dct8 (),
      List.init 8 (fun j -> (Printf.sprintf "x%d" j, ((j * 13) mod 31) - 9))
    );
    ( "crc32",
      crc32 (),
      arr "data" [ 0x12; 0x34; 0x56; 0x78; 0x9A; 0xBC; 0xDE; 0xF0 ] );
    ( "matmul",
      matmul (),
      arr "a" (ramp 9) @ arr "b" (List.map (fun x -> x + 2) (ramp 9)) );
    ( "dot",
      dot_product (),
      [ ("n", 24) ] @ arr "a" (ramp 64) @ arr "b" (ramp 64) );
    ("histogram", histogram (), [ ("n", 48) ] @ arr "data" (ramp 64));
    ( "saturating_scale",
      saturating_scale (),
      [ ("n", 32); ("k", 9) ] @ arr "x" (ramp 64) );
  ]
