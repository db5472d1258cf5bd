"""Differential test: the live oracle against the frozen copy in reference.py."""

import itertools

from hypothesis import given, settings, strategies as st

import reference
from fsglab.graphs import MultiplicityGraph, SimpleGraph, as_multiplicity
from fsglab.statespace import build_components


@st.composite
def simple_graphs(draw, n):
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return SimpleGraph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


@st.composite
def multiplicity_graphs(draw, total):
    """A graph whose positive multiplicities sum to total."""
    cut = draw(st.lists(st.booleans(), min_size=total - 1, max_size=total - 1))
    cuts = [i + 1 for i, c in enumerate(cut) if c]
    mult = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return MultiplicityGraph(draw(simple_graphs(len(mult))), mult)


@st.composite
def instances(draw):
    variant = draw(st.sampled_from(("fs", "fsm", "fsmm")))
    n = draw(st.integers(1, 6))
    if variant == "fs":
        return variant, draw(simple_graphs(n)), draw(simple_graphs(n))
    if variant == "fsm":
        return variant, draw(simple_graphs(n)), draw(multiplicity_graphs(n))
    return variant, draw(multiplicity_graphs(n)), draw(multiplicity_graphs(n))


def _assert_same_report(live, ref):
    # same arrangements in the same enumeration order, with the same ids
    assert list(live.component_id.items()) == list(ref.component_id.items())
    assert live.component_sizes == ref.component_sizes
    assert live.component_count == ref.component_count
    assert live.vertex_count == ref.vertex_count
    assert live.edge_count == ref.edge_count


@settings(max_examples=150, deadline=None)
@given(instances())
def test_build_components_matches_reference(inst):
    variant, x, y = inst
    _assert_same_report(build_components(x, y, variant=variant),
                        reference.build_components(x, y, variant=variant))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(simple_graphs(n),
                                                      simple_graphs(n))))
def test_fs_is_fsm_with_unit_multiplicities(pair):
    x, y = pair
    unit = as_multiplicity(y)
    for build in (build_components, reference.build_components):
        _assert_same_report(build(x, y, variant="fs"),
                            build(x, unit, variant="fsm"))
