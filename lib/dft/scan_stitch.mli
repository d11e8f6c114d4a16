(** Scan-chain stitching and verification.

    The paper's scan-compatibility rules (§2) exist to keep the scan
    chains stitchable after composition; this module makes that
    concrete: it wires one chain per scan partition (SI port → SI/SO
    hops → SO port), re-wires it in place after composition (only the
    hops that changed), and verifies chain integrity.

    Ordering inside a partition: ordered sections first, section by
    section, each in ascending position (§2's order constraint), then
    the unordered registers, greedily nearest-neighbour from the last
    endpoint (short chains = less routing — the §4.1 concern about
    external chains). Internal-scan MBRs contribute one hop (the chain
    enters SI0 and leaves SO0 through the cell's internal chain);
    per-bit-scan cells contribute one hop per bit, wired externally. *)

type report = {
  n_chains : int;
  n_hops : int;  (** SI/SO pin pairs threaded *)
  wirelength : float;  (** Manhattan length of the stitched nets, µm *)
}

val chain_order :
  Mbr_place.Placement.t -> Mbr_netlist.Types.cell_id list -> Mbr_netlist.Types.cell_id list
(** One partition's registers in chain order: sectioned registers by
    (section, position, id), then the placed unordered ones by a
    nearest-neighbour walk (Manhattan distance between centres) from
    the last sectioned register, or from the first unordered one when
    that is unplaced or absent — the earliest register wins a tie —
    then the unplaced unordered ones, in the given order. *)

val stitch : Mbr_place.Placement.t -> report
(** (Re)stitch every partition of the design in place. A chain driver
    (the [scan_si<p>] port, a register's SO) keeps the net it drives:
    the next SI (or the [scan_so<p>] port after the last SO) joins that
    net, and a fresh net is made only for a driver that has none (a
    new MBR's, a split half's or an added register's SO). A hop whose
    ends are unchanged logs no edit, so a second call changes nothing.
    Ports are created on demand. The SI/SO pins of registers outside
    every partition end unconnected. Unplaced scannable registers are
    appended at the end of their partition's chain. *)

val verify : Mbr_netlist.Design.t -> string list
(** Chain-integrity violations (empty = healthy): every scannable
    register reachable from its partition's SI port exactly once,
    chains terminate at the SO port, and ordered-section members appear
    in ascending position order along the chain. *)
