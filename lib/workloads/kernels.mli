(** Embedded/DSP benchmark kernels written in the {!Codesign_ir.Behavior}
    specification language — the application class the surveyed DSP
    co-design systems targeted (paper refs [5][6][17]).

    Each kernel is a self-contained behaviour: parameters in, results
    out, no channel I/O (channelised variants for process networks live
    in {!Apps}).  They exercise every implementation path of the
    framework: the interpreter (reference), the compiler + ISS
    (software), HLS estimation/synthesis (hardware), and ASIP pattern
    mining. *)

(** The kernels of {!all}:
    - ["fir"]: 8-tap FIR filter over ["x"] (param ["n"] samples) with
      coefficients ["h"]; result ["y"].
    - ["iir_biquad"]: direct-form-I biquad over ["x"] (param ["n"]
      samples) with integer coefficients scaled by 256; writes ["y"].
    - ["dct8"]: 8-point 1-D DCT-II (see {!dct8}).
    - ["crc32"]: bitwise CRC-32 (poly 0xEDB88320) over 8 words of
      ["data"]; result ["crc"].
    - ["matmul"]: 3x3 integer matrix multiply of ["a"] and ["b"] into
      ["c"]; result ["checksum"] (sum of [c]).
    - ["dot"]: dot product of ["a"] and ["b"] over param ["n"]; result
      ["acc"].
    - ["histogram"]: histogram of ["data"] (param ["n"] values) into 8
      bins by masking; result ["peak"] (max bin count).
    - ["saturating_scale"]: scales ["x"] (param ["n"] samples) by
      ["k"]/16 with clamping to [-128, 127]; results ["clipped"]
      (count) and ["sum"]. *)

val dct8 : unit -> Codesign_ir.Behavior.proc
(** 8-point 1-D DCT-II (integer, scaled): params ["x0".."x7"], results
    ["y0".."y7"].  Straight-line and multiplier-rich: the HLS and ASIP
    showcase. *)

val all : (string * Codesign_ir.Behavior.proc * (string * int) list) list
(** Every kernel with default sizes and a canonical binding set —
    (name, behaviour, bindings) — used by tests, the ASIP experiment and
    the benchmark harness. *)
