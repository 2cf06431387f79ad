"""The curated separating examples and their re-checkable certificates."""
from dataclasses import replace
from fractions import Fraction

import pytest

from localaut.errors import OddN, TooFewGenerators
from localaut.gallery import (
    GALLERY,
    additive_r,
    build_entry,
    gl_local_not_global,
    sign_twist,
    verify_entry,
)
from localaut.localcheck import SampleMap, check_map
from localaut.matrices import det, equal, mul, smul

F = Fraction


def test_gallery_names():
    assert set(GALLERY) == {"gl_local_not_global", "additive_r", "sign_twist"}
    for name in GALLERY:
        entry = build_entry(name.replace("_", "-"))
        assert entry.name == name


def test_scaling_example_structure():
    entry = gl_local_not_global(3, seed=0)
    (b2, o2), (b3, o3), (b6, o6) = entry.sample_map.samples
    assert (det(b2), det(b3), det(b6)) == (F(2), F(3), F(6))
    # the third sample is literally the product of the first two
    assert equal(mul(b2, b3), b6)
    # outputs are the stated scalings h(2) = 2, h(3) = 9, h(6) = 6
    from localaut.matrices import smul

    assert equal(o2, smul(F(2), b2))
    assert equal(o3, smul(F(9), b3))
    assert equal(o6, smul(F(6), b6))
    # and the scalings are not multiplicative: h(2) h(3) != h(6)
    assert F(2) * F(9) != F(6)
    assert entry.certificate.claim == "IsLocalNotGlobal"


def test_scaling_example_verifies():
    entry = gl_local_not_global(3, seed=0)
    res = verify_entry(entry, seed=0)
    assert res["ok"]
    assert res["map_status"] == "LocallyConsistent"
    assert res["pair_counts"]["Interpolable"] == 3
    assert res["product_pair_fails_homomorphism"]
    assert res["relation_refutations"]


def test_scaling_example_reads_h_from_its_samples():
    """With the third output rescaled to 18 B the scalings are
    multiplicative: the verifier must see that in the samples, so the
    identity holds and no relation is violated."""
    entry = gl_local_not_global(3, seed=0)
    (b2, o2), (b3, o3), (b6, _) = entry.sample_map.samples
    samples = ((b2, o2), (b3, o3), (b6, smul(F(18), b6)))
    res = verify_entry(replace(entry, sample_map=SampleMap(entry.group, samples)), seed=0)
    assert res["identity"] == "h(2) h(3) = 18 vs h(6) = 18"
    assert res["relation_refutations"] == []
    assert not res["product_pair_fails_homomorphism"] and not res["ok"]


def test_scaling_example_is_locally_consistent_under_fresh_seeds():
    entry = gl_local_not_global(3, seed=5)
    rep = check_map(entry.sample_map, seed=11)
    assert rep.status == "LocallyConsistent"


def test_scaling_example_needs_room():
    with pytest.raises(TooFewGenerators):
        gl_local_not_global(2)


def test_additive_example_default_violates():
    entry = additive_r(2)
    assert entry.certificate.claim == "IsLocalNotGlobal"
    res = verify_entry(entry, seed=0)
    assert res["ok"] and res["pairwise_ok"] and res["violations"]


def test_additive_example_trivial_scaling_is_global():
    entry = additive_r(2, scales=[F(1)] * 3)
    assert entry.certificate.claim == "IsAutomorphism"
    res = verify_entry(entry, seed=0)
    assert res["ok"] and not res["violations"]


def test_additive_example_needs_two_generators():
    with pytest.raises(TooFewGenerators):
        additive_r(1)


def test_sign_twist_even_size_verifies():
    entry = sign_twist(4, seed=0)
    assert entry.certificate.claim == "IsAutomorphism"
    res = verify_entry(entry, seed=0)
    assert res["ok"] and res["class_check"] and res["homomorphism"]


def test_sign_twist_odd_size_rejected():
    with pytest.raises(OddN):
        sign_twist(3)
