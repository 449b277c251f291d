"""Regenerate the shipped fixture files under fixtures/.

Run from the repository root:  python3 tools/make_fixtures.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from finsheaf import fixtures as fx
from finsheaf import serialize as ser
from finsheaf.canon import materialize
from finsheaf.gluing import GluingDatum
from finsheaf.presheaf import (
    BasisPresheaf,
    PresheafMorphism,
    SheafDiagram,
    restrict_to_open,
)
from finsheaf.topology import Basis, identity_map, subspace
from finsheaf.values import Poset, ValueMorphism, family_label, finset

OUT = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def write(name: str, payload: dict) -> None:
    ser.dump_json(os.path.join(OUT, name), payload)
    print("wrote", name)


def swap_on_b(u, label):
    if not u:
        return label
    parts = dict(kv.split("=") for kv in label.split("|"))
    flipped = {
        pt: (("1" if vv == "0" else "0") if pt == "b" else vv)
        for pt, vv in parts.items()
    }
    return family_label(flipped)


def pc4_gluing(twisted: bool) -> GluingDatum:
    pc4, _ = fx.pseudocircle()
    u1 = frozenset({"a", "b", "x"})
    u2 = frozenset({"a", "b", "y"})
    part1 = fx.locally_constant_sheaf(subspace(pc4, u1), finset(["0", "1"]))
    part2 = fx.locally_constant_sheaf(subspace(pc4, u2), finset(["0", "1"]))
    overlap = u1 & u2
    src = restrict_to_open(part2, overlap)
    tgt = restrict_to_open(part1, overlap)
    comps = {}
    for u in src.space.opens:
        if twisted:
            table = {a: swap_on_b(u, a) for a in src.sections[u].elements}
        else:
            table = {a: a for a in src.sections[u].elements}
        comps[u] = ValueMorphism(src.sections[u], tgt.sections[u], table)
    theta = PresheafMorphism(src, tgt, comps)
    return GluingDatum(pc4, {"1": u1, "2": u2}, {"1": part1, "2": part2},
                       {("1", "2"): theta})


def main() -> None:
    os.makedirs(OUT, exist_ok=True)
    sierp, _ = fx.sierpinski()
    disc, _ = fx.disc2()
    pc4, _ = fx.pseudocircle()
    pt = fx.point_space()

    write("sierp.space.json", ser.space_to_payload(sierp))
    write("disc2.space.json", ser.space_to_payload(disc))
    write("pc4.space.json", ser.space_to_payload(pc4))
    write("pt.space.json", ser.space_to_payload(pt))

    write("sierp_sheaf.presheaf.json",
          ser.presheaf_to_payload(fx.sierp_two_section_sheaf()))
    write("disc2_g2_failure.presheaf.json",
          ser.presheaf_to_payload(fx.disc2_g2_failure()))
    write("disc2_constant2.presheaf.json",
          ser.presheaf_to_payload(fx.constant_two(disc)))
    write("sierp_constant2.presheaf.json",
          ser.presheaf_to_payload(fx.constant_two(sierp)))
    write("sierp_z2_skyscraper.presheaf.json",
          ser.presheaf_to_payload(fx.sierp_z2_skyscraper()))
    write("disc2_locally_constant.presheaf.json",
          ser.presheaf_to_payload(fx.locally_constant_sheaf(disc, finset(["0", "1"]))))
    write("pc4_locally_constant.presheaf.json",
          ser.presheaf_to_payload(fx.locally_constant_sheaf(pc4, finset(["0", "1"]))))
    write("pt_two.presheaf.json",
          ser.presheaf_to_payload(fx.constant_two(pt)))

    one, two = frozenset({"1"}), frozenset({"2"})
    basis = Basis(disc, frozenset({one, two}))
    bp = BasisPresheaf(
        basis,
        {one: finset(["s"]), two: finset(["t", "u"])},
        {(one, one): ValueMorphism(finset(["s"]), finset(["s"]), {"s": "s"}),
         (two, two): ValueMorphism(finset(["t", "u"]), finset(["t", "u"]),
                                   {"t": "t", "u": "u"})})
    write("disc2_basis.presheaf.json", ser.presheaf_to_payload(bp))

    write("disc2_to_pt.map.json", ser.map_to_payload(fx.disc2_to_pt()))
    write("sierp_to_pt.map.json", ser.map_to_payload(fx.sierp_to_pt()))
    write("pt_to_sierp.map.json", ser.map_to_payload(fx.pt_to_sierp()))
    write("pc4_to_sierp.map.json", ser.map_to_payload(fx.pc4_to_sierp()))
    write("closed_pt_sierp.map.json", ser.map_to_payload(fx.closed_point_into_sierp()))
    write("open_pt_sierp.map.json", ser.map_to_payload(fx.open_point_into_sierp()))
    write("identity_disc2.map.json", ser.map_to_payload(identity_map(disc)))

    write("pc4_untwisted.gluing.json", ser.gluing_to_payload(pc4_gluing(False)))
    write("pc4_twisted.gluing.json", ser.gluing_to_payload(pc4_gluing(True)))

    sheaf = fx.sierp_two_section_sheaf()
    poset = Poset.from_pairs(["L", "R"], [])
    diagram = SheafDiagram(poset, {"L": sheaf, "R": sheaf}, {})
    write("sierp_pair.diagram.json", ser.diagram_to_payload(diagram))

    # deliberately malformed: missing a restriction table
    broken = materialize(ser.presheaf_to_payload(fx.sierp_two_section_sheaf()))
    del broken["restrictions"]["0,1"]
    write("malformed.presheaf.json", broken)


if __name__ == "__main__":
    main()
