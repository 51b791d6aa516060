"""Khovanov homology by the scan (``linkhom.tangle``) against its oracle,
the cube of resolutions: byte-identical tables, whole and windowed."""

import pytest

from linkhom import khovanov, tangle
from linkhom.corpus import corpus_diagrams, random_words
from linkhom.homcore import cube_homology
from linkhom.khovanov import _KHOVANOV, _states, kauffman_bracket, khovanov_homology, unnormalized_homology
from linkhom.linkdiag import braid_closure, mirror, parse_braid, parse_pd, resolve_crossing

from complexes import cube_khovanov
from test_khovanov import windows

# the four R1 kinks, one label twice at one crossing, and a trefoil beside a split kink
KINKS = ("X 1 1 2 2", "X 2 1 1 2", "X 1 2 2 1", "X 2 2 1 1", "X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3\nX 7 7 8 8")
# strands no letter touches close into loops
UNTOUCHED = ("5: 2 2 2", "2:")


def corpus():
    return [braid_closure(b) for b in corpus_diagrams(max_crossings=8)]


def test_scan_equals_the_cube():
    diagrams = corpus()
    diagrams += [mirror(d) for d in diagrams]
    diagrams += [braid_closure(b) for b in random_words(36, 200, max_strands=5, max_crossings=8)]
    diagrams += [parse_pd(t) for t in KINKS] + [braid_closure(parse_braid(t)) for t in UNTOUCHED]
    torsion = 0
    for d in diagrams:
        table = khovanov_homology(d)
        assert table.to_json() == cube_khovanov(d).to_json(), d
        torsion += any(t for _, t in table.entries.values())
    assert len(diagrams) == 273 and torsion >= 80


def test_scan_equals_the_cube_on_resolved_diagrams():
    # one crossing of a corpus diagram smoothed: kinks, a label twice at one
    # crossing among others, and loops, inside larger diagrams
    kinked = 0
    for b in corpus_diagrams(max_crossings=7):
        d = braid_closure(b)
        for crossing in range(d.n_crossings):
            for bit in (0, 1):
                r = resolve_crossing(d, crossing, bit)
                assert khovanov_homology(r).to_json() == cube_khovanov(r).to_json(), (b.text(), crossing, bit)
                kinked += r.n_crossings > 1 and any(len(set(x.arcs)) < 4 for x in r.crossings)
    assert kinked >= 100


def test_unnormalized_scan_equals_the_cube():
    for d in corpus() + [parse_pd(t) for t in KINKS]:
        assert unnormalized_homology(d).to_json() == cube_homology(_KHOVANOV, _states(d)).to_json(), d


def test_scan_windows_equal_the_cube():
    # the windows of test_khovanov on every third corpus diagram: the scan
    # cuts its whole table, the cube builds only what the window needs
    cut = 0
    for d in corpus()[::3]:
        js = [j for _, j in khovanov_homology(d).entries]
        for jwindow in windows(min(js), max(js)):
            part = khovanov_homology(d, jwindow=jwindow)
            assert part.to_json() == cube_khovanov(d, jwindow=jwindow).to_json(), (d, jwindow)
            cut += not part.is_empty()
        for irange in windows(-d.n_minus, d.n_plus):
            part = khovanov_homology(d, irange=irange)
            assert part.to_json() == cube_khovanov(d, irange=irange).to_json(), (d, irange)
            cut += not part.is_empty()
    assert cut >= 100


def test_scan_order_is_one_rule_for_the_bracket_and_the_scan():
    # each next crossing has the most open labels (met once so far)
    d = braid_closure(parse_braid("3: 1 2 1 2 -1 2"))
    order = tangle.scan_order(d.crossings)
    assert sorted(order, key=d.crossings.index) == list(d.crossings)
    seen = set()
    for k, x in enumerate(order):
        opened = [sum(a in seen for a in y.arcs) for y in order[k:]]
        assert opened[0] == max(opened)
        for a in x.arcs:
            seen ^= {a}
    calls = []
    real = tangle.scan_order

    def recorded(crossings):
        calls.append(tuple(crossings))
        return real(crossings)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(khovanov, "scan_order", recorded)
        mp.setattr(tangle, "scan_order", recorded)
        kauffman_bracket(d)
        khovanov_homology(d)
    assert calls == [d.crossings, d.crossings]


def test_scan_refuses_a_complex_that_fails_d_squared(monkeypatch):
    # neck cutting that keeps only one of Delta(1)'s terms breaks d^2 = 0
    # as soon as a saddle splits a circle
    real = tangle._Surface.__missing__

    def one_term(surface, dots):
        value = surface[dots] = dict(list(real(surface, dots).items())[:1])
        return value

    monkeypatch.setattr(tangle._Surface, "__missing__", one_term)
    with pytest.raises(ValueError, match=r"d\^2 != 0 in the scan after \d+ crossings$"):
        khovanov_homology(braid_closure(parse_braid("3: 1 2 1 2")))
