"""The record contract: every public record is an immutable named tuple
that checks its fields on construction.  Keyword construction and defaults,
immutability, value equality and hashing, the repr, and each check's
InvalidArgumentError."""

import math

import pytest

from twistkit.errors import InvalidArgumentError
from twistkit.expansion import PlanarVec
from twistkit.fields import (CylPoint, FieldSample, ModeKind, ModeSpec,
                             TmTeDecomposition)
from twistkit.matrix_elements import (FREE_BESSEL, TRAPPED_HO,
                                      CandidateComparison, CenterOfMassState,
                                      Channel, ChannelAmplitude,
                                      DipoleCouplings, InternalState,
                                      SpinParticle, TermOrder)
from twistkit.quadrature import QuadResult
from twistkit.specfun import SeriesResult


def _radial(r):
    return math.exp(-r)


_CHANNEL = Channel(-1, 0, 0, ModeKind.TM, TermOrder(0, 1, 0))

# Each public record with one valid set of fields, in field order.
RECORDS = [
    (ModeSpec, dict(kind=ModeKind.TM, m=1, k_perp=0.8, k_z=1.2)),
    (CylPoint, dict(rho=1.0, phi=0.5, z=0.2, t=0.3)),
    (FieldSample, dict(x=1 + 2j, y=0j, z=-1j)),
    (TmTeDecomposition, dict(c_tm=0.6, c_te=0.8j, base_m=1)),
    (PlanarVec, dict(r=1.3, phi=0.4)),
    (QuadResult, dict(value=0.25, abs_error_estimate=1e-13, evaluations=21,
                      converged=True)),
    (SeriesResult, dict(value=1 + 1j, terms_used=3,
                        truncation_estimate=1e-17)),
    (CenterOfMassState, dict(variant=TRAPPED_HO, m_R=1, k_z_R=0.5,
                             k_perp_R=0.0, n_bar=2, alpha=1.0)),
    (InternalState, dict(l_r=1, m_r=-1, radial=_radial, r_max=80.0)),
    (TermOrder, dict(n=1, v=2, s=0)),
    (Channel, dict(delta_m_R=-1, delta_m_r=0, delta_spin_e=0,
                   mode_kind=ModeKind.TM, order=TermOrder(0, 1, 0))),
    (ChannelAmplitude, dict(channel=_CHANNEL, amplitude=0.1 - 0.2j,
                            cm_integral=0.5 + 0j, rel_integral=1.29,
                            coupling=-0.3j)),
    (DipoleCouplings, dict(q_e=-1.0, energy_scale=0.375)),
    (SpinParticle, dict(g=2.0, q=-1.0, M=1.0)),
    (CandidateComparison, dict(oracle=1 + 0j, oracle_error=1e-12,
                               candidate=1 + 1e-9j, candidate_converged=True)),
]
_IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, kw", RECORDS, ids=_IDS)
def test_keyword_and_positional_construction_agree(cls, kw):
    record = cls(**kw)
    assert cls._fields == tuple(kw)
    assert record == cls(*kw.values())
    assert tuple(record) == tuple(kw.values())
    assert all(getattr(record, k) is v for k, v in kw.items())


def test_defaults():
    assert CenterOfMassState(FREE_BESSEL, 2, k_perp_R=0.7) == (
        FREE_BESSEL, 2, 0.0, 0.7, 0, 0.0)
    assert CenterOfMassState.free(2, 0.7) == CenterOfMassState(
        FREE_BESSEL, 2, 0.0, 0.7)
    assert CenterOfMassState.trapped(-1, 3, 1.5) == (
        TRAPPED_HO, -1, 0.0, 0.0, 3, 1.5)
    assert InternalState(0, 0, _radial).r_max == 60.0
    assert DipoleCouplings() == (1.0, 1.0)
    assert DipoleCouplings(energy_scale=2.0) == (1.0, 2.0)
    assert CylPoint(1.0, 0.5, 0.2).t == 0.0


@pytest.mark.parametrize("cls, kw", RECORDS, ids=_IDS)
def test_assignment_raises(cls, kw):
    record = cls(**kw)
    for name in kw:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):  # __slots__ = (): no __dict__
        record.extra = 0


@pytest.mark.parametrize("cls, kw", RECORDS, ids=_IDS)
def test_equal_values_give_equal_records_and_hashes(cls, kw):
    a, b = cls(**kw), cls(**dict(kw))
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, kw", RECORDS, ids=_IDS)
def test_repr_names_the_class_and_its_fields(cls, kw):
    fields = ", ".join(f"{k}={v!r}" for k, v in kw.items())
    assert repr(cls(**kw)) == f"{cls.__name__}({fields})"


def test_methods_and_properties_survive():
    assert ModeSpec(ModeKind.TE, 0, 0.6, 0.8).omega() == pytest.approx(1.0)
    assert CylPoint.from_cartesian(0.0, 2.0, 1.0) == CylPoint(
        2.0, math.pi / 2, 1.0)
    assert FieldSample(3.0, 0j, 4j).norm() == 5.0
    assert FieldSample(1.0, 2j, 0j).scaled(2.0) == FieldSample(2.0, 4j, 0j)
    assert TmTeDecomposition(0.6, 0.8j, 1).norm() == pytest.approx(1.0)
    assert PlanarVec.from_complex(2j) == PlanarVec(2.0, math.pi / 2)
    assert QuadResult(1.5, 1e-12, 21, True).scaled(-2.0) == (
        -3.0, 2e-12, 21, True)
    assert CandidateComparison(1.0, 0.0, 1.25, True).discrepancy == 0.25


# Each check of each record, with the message it raises.
BAD = [
    (ModeSpec, (ModeKind.TM, 1.5, 0.8, 1.2), "m must be an integer"),
    (ModeSpec, (ModeKind.TM, 1, 0.0, 1.2), "k_perp must be finite and > 0"),
    (ModeSpec, (ModeKind.TM, 1, math.inf, 1.2), "k_perp must be finite"),
    (ModeSpec, (ModeKind.TM, 1, 0.8, math.nan), "k_z must be finite"),
    (CylPoint, (-0.5, 0.0, 0.0), "rho must be >= 0"),
    (CylPoint, (math.nan, 0.0, 0.0), "rho must be >= 0 and finite, got nan"),
    (CylPoint, (math.inf, 0.0, 0.0), "rho must be >= 0 and finite, got inf"),
    (FieldSample, (math.nan, 0j, 0j), "field components must be finite"),
    (FieldSample, (0j, 0j, complex(0, math.inf)),
     "field components must be finite"),
    (TmTeDecomposition, (0j, 0.0, 1), "decomposition must be nonzero"),
    (PlanarVec, (-1.0, 0.0), "magnitude must be >= 0"),
    (PlanarVec, (math.nan, 0.0),
     "magnitude must be >= 0 and finite, got r = nan"),
    (PlanarVec, (math.inf, 0.0),
     "magnitude must be >= 0 and finite, got r = inf"),
    (QuadResult, (1.0, -1e-15, 21, True), "abs_error_estimate must be >= 0"),
    (QuadResult, (1.0, math.nan, 21, True), "abs_error_estimate must be >= 0"),
    (SeriesResult, (1.0, 0, 0.0), "terms_used must be >= 1"),
    (SeriesResult, (1.0, 1, -1.0), "truncation_estimate must be >= 0"),
    (SeriesResult, (1.0, 1, math.nan), "truncation_estimate must be >= 0"),
    (SeriesResult, (complex(1, math.inf), 1, 0.0),
     "series value is not finite"),
    (CenterOfMassState, (TRAPPED_HO, 1.0, 0.0, 0.0, 0, 1.0),
     "m_R and n_bar must be integers"),
    (CenterOfMassState, (TRAPPED_HO, 1, 0.0, 0.0, 0.0, 1.0),
     "m_R and n_bar must be integers"),
    (CenterOfMassState, (FREE_BESSEL, 1, math.inf, 0.7),
     "k_z_R must be finite"),
    (CenterOfMassState, (FREE_BESSEL, 1, 0.0, 0.0),
     "free states need 0 < k_perp_R < inf"),
    (CenterOfMassState, (TRAPPED_HO, 1, 0.0, 0.0, 0, math.inf),
     "trapped states need 0 < alpha < inf"),
    (CenterOfMassState, (TRAPPED_HO, 1, 0.0, 0.0, -1, 1.0),
     "n_bar must be >= 0"),
    (CenterOfMassState, ("bound", 1), "unknown variant 'bound'"),
    (InternalState, (-1, 0, _radial), "l_r must be an integer >= 0"),
    (InternalState, (1.0, 0, _radial), "l_r must be an integer >= 0"),
    (InternalState, (1, -2, _radial), "m_r must be an integer >= -1"),
    (InternalState, (1, 2, _radial), r"\|m_r\| must be <= l_r"),
    (Channel, (0, 0, 2, ModeKind.TE, None), "delta_spin_e must be in"),
    (DipoleCouplings, (math.nan,), "q_e and energy_scale must be finite"),
    (DipoleCouplings, (1.0, math.inf), "q_e and energy_scale must be finite"),
    (SpinParticle, (math.nan, 1.0, 1.0), "need finite g and q and 0 < M"),
    (SpinParticle, (2.0, 1.0, 0.0), "need finite g and q and 0 < M"),
    (SpinParticle, (2.0, 1.0, math.inf), "need finite g and q and 0 < M"),
    (CylPoint, (1.0, math.nan, 0.0), "phi must be finite, got nan"),
    (CylPoint, (1.0, 0.0, math.inf), "z must be finite, got inf"),
    (CylPoint, (1.0, 0.0, 0.0, -math.inf), "t must be finite, got -inf"),
    (InternalState, (0, 0, None), "radial must be callable, got None"),
    (Channel, (0, 0, 0, "tm", None), "mode_kind must be a ModeKind"),
    (Channel, (0, 0, 0, None, None), "mode_kind must be a ModeKind"),
]


@pytest.mark.parametrize("cls, args, message", BAD,
                         ids=[f"{c.__name__}-{i}" for i, (c, _, _) in
                              enumerate(BAD)])
def test_each_check_raises(cls, args, message):
    with pytest.raises(InvalidArgumentError, match=message):
        cls(*args)


def test_large_finite_coordinates_build():
    # phi + z + t overflows here, yet each coordinate is finite.
    assert CylPoint(1.0, 1e308, 1e308, 1e308).t == 1e308
