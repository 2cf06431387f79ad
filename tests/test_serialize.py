"""JSON round trips and the canonical digest."""
import random
from fractions import Fraction

import pytest

from localaut.autos import CONTRAGREDIENT, SIGMA_CONJ, SIGMA_ID, STANDARD, apply, make_automorphism
from localaut.errors import FileFormatError
from localaut.localcheck import samples_from_automorphism
from localaut.matrices import (
    QC,
    QR,
    GroupTag,
    close,
    diag_first,
    equal,
    identity,
    random_gl,
    random_sl,
    random_unitary,
    smul,
)
from localaut.scalarmaps import CIRCLE, CSTAR, LatticeFunc, PowerConjFunc, PowerFunc, TableFunc
from localaut.scalars import GaussRational
from localaut.serialize import (
    auto_from_json,
    auto_to_json,
    canonical_json,
    mat_from_json,
    mat_to_json,
    mulfunc_from_json,
    mulfunc_to_json,
    samples_from_json,
    samples_to_json,
    sha256_digest,
)

F = Fraction


def test_matrix_round_trip_exact():
    rng = random.Random(1)
    for regime in (QR, QC):
        a = random_gl(3, regime, rng)
        assert equal(mat_from_json(mat_to_json(a)), a)


def test_matrix_round_trip_floats():
    a = random_unitary(3, seed=2)
    b = mat_from_json(mat_to_json(a))
    assert close(a, b, 1e-15)


def test_automorphism_round_trip_with_characters():
    rng = random.Random(3)
    # g(2) = 4, g(3) = 9 on the lattice <2, 3>
    lattice_g = LatticeFunc((2, 3), (4, 9))
    lattice_auto = make_automorphism(GroupTag("GL", "R", 3), STANDARD, SIGMA_ID, identity(3, QR), lattice_g)
    cases = [
        make_automorphism(
            GroupTag("GL", "R", 3), STANDARD, SIGMA_ID, random_gl(3, QR, rng), PowerFunc(F(2))
        ),
        make_automorphism(
            GroupTag("GL", "C", 3),
            CONTRAGREDIENT,
            SIGMA_CONJ,
            random_gl(3, QC, rng),
            PowerConjFunc(1, 1),
        ),
        make_automorphism(GroupTag("SL", "R", 3), CONTRAGREDIENT, SIGMA_ID, random_gl(3, QR, rng)),
        lattice_auto,
    ]
    for auto in cases:
        back = auto_from_json(auto_to_json(auto))
        assert back.group == auto.group and back.kind == auto.kind and back.sigma == auto.sigma
        assert back.g == auto.g
        sample = random_sl(3, QR if auto.group.field == "R" else QC, rng)
        assert equal(apply(back, sample), apply(auto, sample))
    assert auto_to_json(lattice_auto)["g"]["type"] == "latticehom"
    six = diag_first(3, F(6), QR)
    assert equal(apply(auto_from_json(auto_to_json(lattice_auto)), six), smul(F(36), six))


def test_table_func_round_trip_in_every_ambient():
    tables = {
        "table": TableFunc(((F(-2), F(4)), (F(1, 3), F(9, 7)))),
        "gausstable": TableFunc(((GaussRational(F(1), F(1)), GaussRational(F(2))),), CSTAR),
        "circletable": TableFunc(((1j, complex(0.6, 0.8)),), CIRCLE),
    }
    for wire, g in tables.items():
        obj = mulfunc_to_json(g)
        assert obj["type"] == wire
        assert mulfunc_from_json(obj) == g
    assert mulfunc_to_json(tables["table"])["points"] == [["-2", "4"], ["1/3", "9/7"]]
    assert mulfunc_to_json(tables["gausstable"])["points"] == [
        [{"re": "1", "im": "1"}, {"re": "2", "im": "0"}]
    ]
    assert mulfunc_to_json(tables["circletable"])["points"] == [[[0.0, 1.0], [0.6, 0.8]]]


def test_sample_map_round_trip():
    rng = random.Random(4)
    auto = make_automorphism(GroupTag("SL", "R", 3), STANDARD, SIGMA_ID, random_gl(3, QR, rng))
    sm = samples_from_automorphism(auto, [random_sl(3, QR, rng) for _ in range(3)])
    back = samples_from_json(samples_to_json(sm))
    assert back.group == sm.group
    for (a1, b1), (a2, b2) in zip(back.samples, sm.samples):
        assert equal(a1, a2) and equal(b1, b2)


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json({"a": [2, 3], "b": 1})
    assert sha256_digest({"x": "1/2"}) == sha256_digest({"x": "1/2"})


def test_malformed_objects_raise_file_format_error():
    with pytest.raises(FileFormatError):
        mat_from_json({"regime": "QR"})
    with pytest.raises(FileFormatError):
        auto_from_json({"kind": "standard"})
    with pytest.raises(FileFormatError):
        samples_from_json({"samples": "nope"})
    one = mat_to_json(random_sl(3, QR, random.Random(1)))
    group = {"family": "SL", "field": "R", "n": 3}
    for sample in ([one], [one, one, one]):
        with pytest.raises(FileFormatError):
            samples_from_json({"group": group, "samples": [sample]})
    for bad in ("x", 1.5):
        with pytest.raises(FileFormatError):
            mat_from_json({"regime": "QR", "entries": [[bad, "0"], ["0", "1"]]})
        with pytest.raises(FileFormatError):
            mat_from_json({"regime": "QC", "entries": [[{"re": bad, "im": "0"}]]})
