(** Built-in register libraries.

    No liberty files can ship with the repo (proprietary), so these
    presets play the role of the 28 nm production library of the paper's
    experiments: realistic relative economics — per-bit area and clock
    pin capacitance drop as bit width grows, drive strength trades
    resistance for area — with arbitrary but self-consistent absolute
    values. All composition/timing decisions depend only on the relative
    values. *)

val default : unit -> Library.t
(** Functional classes ["dff"], ["dffr"], ["dlat"] (transparent
    latches) and ["sdffr"]; widths 1/2/4/8; drives X1/X2/X4; ["sdffr"]
    in both internal-scan and per-bit-scan variants. Latches compose
    exactly like flops but only within their own class (§2). *)

val paper_example : unit -> Library.t
(** The worked-example library of the paper's Fig. 3: a single class
    ["dff"] with 1, 2, 3, 4 and 8-bit MBRs, one drive strength, sized so
    that incomplete 8-bit mapping is attractive (as the figure
    "highlights on purpose"). *)
