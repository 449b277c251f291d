from itertools import product

import pytest

from finsheaf.errors import (
    CapExceeded,
    FinsheafError,
    IncompatibleCone,
    MalformedDiagram,
    MalformedValue,
    MixedCategories,
    NotFiltered,
)
from finsheaf.topology import FiniteSpace
from finsheaf.values import (
    Diagram,
    FINAB,
    Poset,
    ValueMorphism,
    ValueObject,
    compose,
    cyclic_group,
    enumerate_morphisms,
    family_label,
    filtered_colimit,
    finset,
    group_from_triples,
    identity,
    limit,
    mediating_morphism,
    singleton,
    tupling,
    zero_group,
)


class TestValueMorphism:
    def test_keys_outside_the_source_rejected(self):
        # without the check, is_bijective would count the image of "zz"
        with pytest.raises(ValueError, match="outside its source"):
            ValueMorphism(finset(["a", "b"]), finset(["x", "y"]),
                          {"a": "x", "b": "x", "zz": "y"})


class TestGroupTables:
    def test_cyclic_group_is_valid(self):
        z4 = cyclic_group(4)
        assert z4.zero == "0"
        assert z4.neg["1"] == "3"

    def test_broken_identity_rejected(self):
        add = {(a, b): str((int(a) + int(b)) % 2) for a in "01" for b in "01"}
        add[("0", "1")] = "0"
        with pytest.raises(ValueError):
            ValueObject(FINAB, ("0", "1"), add=add, zero="0")

    def test_broken_associativity_rejected(self):
        add = {(a, b): str((int(a) + int(b)) % 3) for a in "012" for b in "012"}
        add[("1", "2")] = "1"
        add[("2", "1")] = "1"
        with pytest.raises(ValueError):
            ValueObject(FINAB, ("0", "1", "2"), add=add, zero="0")

    def test_finset_may_be_empty(self):
        assert len(finset([])) == 0

    def test_add_keys_outside_the_elements_rejected(self):
        add = dict(cyclic_group(2).add)
        add[("zz", "0")] = "1"
        with pytest.raises(MalformedValue, match=r"keys outside its elements: \[\('zz', '0'\)\]"):
            ValueObject(FINAB, ("0", "1"), add=add, zero="0")

    def test_triples_naming_a_non_element_rejected(self):
        triples = [[x, y, z] for (x, y), z in cyclic_group(2).add.items()] + [["zz", "0", "1"]]
        with pytest.raises(MalformedValue, match="outside its elements"):
            group_from_triples(["0", "1"], triples, "0")

    def test_repeated_pair_rejected(self):
        # Z/4's table, then Z/2×Z/2's on the same labels: once loaded as the latter
        klein = {"0": (0, 0), "1": (0, 1), "2": (1, 0), "3": (1, 1)}
        label = {v: k for k, v in klein.items()}
        triples = [[x, y, z] for (x, y), z in cyclic_group(4).add.items()] + [
            [x, y, label[(a ^ c, b ^ d)]]
            for x, (a, b) in klein.items() for y, (c, d) in klein.items()]
        assert len(triples) == 32
        with pytest.raises(MalformedValue, match=r"add table repeats \('0', '0'\)"):
            group_from_triples(["0", "1", "2", "3"], triples, "0")

    def test_homomorphism_law_enforced(self):
        z2 = cyclic_group(2)
        with pytest.raises(ValueError):
            ValueMorphism(z2, z2, {"0": "1", "1": "0"})


def chain_diagram():
    """Contravariant chain b >= a: one arrow from the object at b to a."""
    a_obj, b_obj = finset(["a1", "a2"]), finset(["b1", "b2", "b3"])
    poset = Poset.from_pairs(["a", "b"], [("a", "b")])
    arrow = ValueMorphism(b_obj, a_obj, {"b1": "a1", "b2": "a1", "b3": "a2"})
    return Diagram(poset, {"a": a_obj, "b": b_obj}, {("a", "b"): arrow})


def cospan_diagram():
    """Pullback shape: arrows from objects at a and b down to c."""
    a_obj, b_obj, c_obj = finset(["a1", "a2"]), finset(["b1"]), finset(["c"])
    poset = Poset.from_pairs(["a", "b", "c"], [("c", "a"), ("c", "b")])
    return Diagram(
        poset,
        {"a": a_obj, "b": b_obj, "c": c_obj},
        {("c", "a"): ValueMorphism(a_obj, c_obj, {"a1": "c", "a2": "c"}),
         ("c", "b"): ValueMorphism(b_obj, c_obj, {"b1": "c"})})


class TestLimit:
    def test_empty_diagram_is_terminal(self):
        poset = Poset.from_pairs([], [])
        lim = limit(Diagram(poset, {}, {}))
        assert len(lim.object) == 1

    def test_binary_product(self):
        poset = Poset.from_pairs(["p", "q"], [])
        lim = limit(Diagram(poset, {"p": finset(["s"]), "q": finset(["t", "u"])}, {}))
        assert len(lim.object) == 2

    def test_cospan_pullback_matches_pair_oracle(self):
        diagram = cospan_diagram()
        lim = limit(diagram)
        # oracle: enumerate all (a, b) pairs, keep those matching at c
        fa = diagram.arrows[("c", "a")].map
        fb = diagram.arrows[("c", "b")].map
        expected = {
            (x, y)
            for x in diagram.objects["a"].elements
            for y in diagram.objects["b"].elements
            if fa[x] == fb[y]
        }
        got = {
            (lim.projections["a"].map[l], lim.projections["b"].map[l])
            for l in lim.object.elements
        }
        assert got == expected == {("a1", "b1"), ("a2", "b1")}

    def test_finab_limit_is_a_group(self):
        poset = Poset.from_pairs(["p", "q"], [])
        lim = limit(Diagram(poset, {"p": cyclic_group(2), "q": cyclic_group(2)}, {}))
        assert lim.object.category == FINAB
        assert len(lim.object) == 4
        for proj in lim.projections.values():
            assert proj.source.category == FINAB  # hom law checked on init

    def test_projections_reproduce_cone(self):
        diagram = chain_diagram()
        lim = limit(diagram)
        tip = finset(["t"])
        cone = {
            "a": ValueMorphism(tip, diagram.objects["a"], {"t": "a1"}),
            "b": ValueMorphism(tip, diagram.objects["b"], {"t": "b2"}),
        }
        med = mediating_morphism(cone, lim, diagram)
        for i in ("a", "b"):
            assert compose(lim.projections[i], med).map == cone[i].map

    def test_mediating_identity_case(self):
        diagram = chain_diagram()
        lim = limit(diagram)
        cone = {i: lim.projections[i] for i in ("a", "b")}
        med = mediating_morphism(cone, lim, diagram)
        assert med.map == identity(lim.object).map

    def test_mediating_into_empty_diagram(self):
        poset = Poset.from_pairs([], [])
        diagram = Diagram(poset, {}, {})
        lim = limit(diagram)
        med = mediating_morphism({}, lim, diagram, tip=finset(["x", "y"]))
        assert set(med.map.values()) == set(lim.object.elements)

    def test_incompatible_cone_rejected(self):
        diagram = chain_diagram()
        lim = limit(diagram)
        tip = finset(["t"])
        cone = {
            "a": ValueMorphism(tip, diagram.objects["a"], {"t": "a2"}),
            "b": ValueMorphism(tip, diagram.objects["b"], {"t": "b1"}),
        }
        with pytest.raises(IncompatibleCone):
            mediating_morphism(cone, lim, diagram)

    def test_uniqueness_by_enumeration(self):
        diagram = chain_diagram()
        lim = limit(diagram)
        tip = finset(["t", "t2"])
        for m1 in enumerate_morphisms(tip, lim.object):
            for m2 in enumerate_morphisms(tip, lim.object):
                if all(
                    compose(lim.projections[i], m1).map
                    == compose(lim.projections[i], m2).map
                    for i in ("a", "b")
                ):
                    assert m1.map == m2.map

    def test_limit_labels_are_family_labels(self):
        lim = limit(chain_diagram())
        assert all(family_label(fam) == label for label, fam in lim.families.items())
        assert family_label({"b": "b|2", "a": "a=1"}) == "a=a\\=1|b=b\\|2"

    def test_tupling_of_projections_is_identity(self):
        lim = limit(chain_diagram())
        legs = {i: p.map for i, p in lim.projections.items()}
        assert tupling(lim.object, lim.object, legs).map == identity(lim.object).map

    def test_cone_leg_outside_the_diagram_rejected(self):
        diagram = chain_diagram()
        tip = finset(["t"])
        cone = {
            "a": ValueMorphism(tip, finset(["a1"]), {"t": "a1"}),
            "b": ValueMorphism(tip, diagram.objects["b"], {"t": "b1"}),
        }
        with pytest.raises(IncompatibleCone):
            mediating_morphism(cone, limit(diagram), diagram)

    def test_cone_landing_outside_the_limit_rejected(self):
        # the cone commutes over the chain, but lim is the limit of a
        # diagram with the other arrow, where (a1, b3) is not a family
        diagram = chain_diagram()
        a_obj, b_obj = diagram.objects["a"], diagram.objects["b"]
        other = Diagram(diagram.index, diagram.objects, {("a", "b"): ValueMorphism(
            b_obj, a_obj, {"b1": "a1", "b2": "a1", "b3": "a1"})})
        tip = finset(["t"])
        cone = {"a": ValueMorphism(tip, a_obj, {"t": "a2"}),
                "b": ValueMorphism(tip, b_obj, {"t": "b3"})}
        with pytest.raises(IncompatibleCone):
            mediating_morphism(cone, limit(other), diagram)


def filtered_three(max_obj):
    """Poset m < {a, b} with the given object at the bottom m."""
    lo = finset(["u", "v"])
    poset = Poset.from_pairs(["a", "b", "m"], [("m", "a"), ("m", "b")])
    to_top = ValueMorphism(lo, max_obj, {"u": max_obj.elements[0],
                                         "v": max_obj.elements[0]})
    return Diagram(poset, {"a": lo, "b": lo, "m": max_obj},
                   {("m", "a"): to_top, ("m", "b"): to_top})


class TestFilteredColimit:
    def test_single_object(self):
        obj = finset(["x", "y"])
        poset = Poset.from_pairs(["i"], [])
        colim = filtered_colimit(Diagram(poset, {"i": obj}, {}))
        assert colim.injections["i"].is_bijective()

    def test_chain_collapses(self):
        a_obj, b_obj = finset(["a1", "a2"]), finset(["b"])
        poset = Poset.from_pairs(["a", "b"], [("b", "a")])
        arrow = ValueMorphism(a_obj, b_obj, {"a1": "b", "a2": "b"})
        colim = filtered_colimit(Diagram(poset, {"a": a_obj, "b": b_obj},
                                         {("b", "a"): arrow}))
        assert len(colim.object) == 1

    def test_maximum_element_dominates(self):
        top = finset(["w", "z"])
        colim = filtered_colimit(filtered_three(top))
        # oracle: exhaustively check each class has a member at the maximum
        for members in colim.classes.values():
            assert any(i == "m" for i, _ in members)
        assert colim.injections["m"].is_bijective()

    def test_not_filtered(self):
        poset = Poset.from_pairs(["a", "b"], [])
        with pytest.raises(NotFiltered):
            filtered_colimit(Diagram(poset, {"a": finset(["x"]),
                                             "b": finset(["y"])}, {}))

    def test_empty_index_not_filtered(self):
        with pytest.raises(NotFiltered):
            filtered_colimit(Diagram(Poset.from_pairs([], []), {}, {}))

    def test_finab_colimit_group_structure(self):
        z2 = cyclic_group(2)
        poset = Poset.from_pairs(["a", "m"], [("m", "a")])
        arrow = ValueMorphism(z2, z2, {"0": "0", "1": "1"})
        colim = filtered_colimit(Diagram(poset, {"a": z2, "m": z2},
                                         {("m", "a"): arrow}))
        assert colim.object.category == FINAB
        assert len(colim.object) == 2

    def test_cocone_factors_uniquely(self):
        top = finset(["w"])
        diagram = filtered_three(top)
        colim = filtered_colimit(diagram)
        target = finset(["p", "q"])
        # every cocone is determined by its leg at the maximum here
        for leg_top in enumerate_morphisms(top, target):
            legs = {
                i: compose(leg_top, diagram.arrow("m", i)) if i != "m" else leg_top
                for i in diagram.index.elements
            }
            factored = [
                m for m in enumerate_morphisms(colim.object, target)
                if all(compose(m, colim.injections[i]).map == legs[i].map
                       for i in diagram.index.elements)
            ]
            assert len(factored) == 1


class TestEnumerateMorphisms:
    def test_two_to_one(self):
        assert len(enumerate_morphisms(finset(["a", "b"]), finset(["c"]))) == 1

    def test_one_to_two(self):
        assert len(enumerate_morphisms(finset(["a"]), finset(["c", "d"]))) == 2

    def test_z2_endomorphisms_match_filter_oracle(self):
        z2 = cyclic_group(2)
        # oracle: filter all set maps by the homomorphism law
        expected = []
        for images in product(z2.elements, repeat=2):
            table = dict(zip(z2.elements, images))
            if all(table[z2.add[(a, b)]] == z2.add[(table[a], table[b])]
                   for a in z2.elements for b in z2.elements):
                expected.append(table)
        got = enumerate_morphisms(z2, z2)
        assert [m.map for m in got] == sorted(expected, key=lambda t: tuple(sorted(t.items())))
        assert len(got) == 2

    def test_z2_to_z3_only_zero(self):
        assert len(enumerate_morphisms(cyclic_group(2), cyclic_group(3))) == 1

    def test_mixed_categories(self):
        with pytest.raises(MixedCategories):
            enumerate_morphisms(finset(["a"]), cyclic_group(2))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_morphisms(finset(["a", "b"]), finset(["c", "d"]), max_homs=3)


class TestDiagramValidation:
    def test_missing_arrow(self):
        poset = Poset.from_pairs(["a", "b"], [("a", "b")])
        with pytest.raises(MalformedDiagram):
            Diagram(poset, {"a": finset(["x"]), "b": finset(["y"])}, {})

    def test_inconsistent_composites(self):
        objs = {i: finset(["0", "1"]) for i in ("a", "b", "c")}
        poset = Poset.from_pairs(["a", "b", "c"], [("a", "b"), ("b", "c")])
        ident = {"0": "0", "1": "1"}
        swap = {"0": "1", "1": "0"}
        with pytest.raises(MalformedDiagram):
            Diagram(poset, objs, {
                ("a", "b"): ValueMorphism(objs["a"], objs["b"], dict(ident)),
                ("b", "c"): ValueMorphism(objs["b"], objs["c"], dict(ident)),
                ("a", "c"): ValueMorphism(objs["a"], objs["c"], dict(swap)),
            })

    def test_mixed_category_diagram(self):
        poset = Poset.from_pairs(["a", "b"], [])
        with pytest.raises(MixedCategories):
            Diagram(poset, {"a": finset(["x"]), "b": cyclic_group(2)}, {})

    def test_terminal_objects(self):
        assert len(singleton()) == 1
        assert len(zero_group()) == 1


def test_library_callers_catch_finsheaf_error():
    add = dict(cyclic_group(2).add)
    add[("0", "1")] = "0"
    with pytest.raises(FinsheafError, match="not commutative"):
        ValueObject(FINAB, ("0", "1"), add=add, zero="0")
    with pytest.raises(FinsheafError, match="not closed under union"):
        FiniteSpace(["1", "2", "3"], [[], ["1"], ["2"], ["1", "2", "3"]])
