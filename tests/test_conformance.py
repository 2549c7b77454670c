"""Every kernel artifact passes the checks of its public constructor.

The kernels build their ``Code``, ``CanonicalForm``, ``SimplicialComplex``
and ``SquarefreeMonomialIdeal`` results through ``codes._trusted``, without
the constructors' range and antichain checks. These tests run those checks
on seeded codes and their complements at n = 1..12: each artifact is
rebuilt through its public constructor, which must accept it and give an
equal value with the same hash. The artifacts that need a Berge
dualization of the polar universe (``factor_ideal``, ``polar_complex`` and
their round trips) run up to n = 8, because Berge takes seconds from
n = 9 on; the round trip of the code's own complex runs at every n.
"""

from dataclasses import fields

import pytest

from neurocode import (
    canonical_form,
    complex_of_ideal,
    downward_closure,
    factor_complex,
    factor_ideal,
    ideal_of_complex,
    polar_complex,
    polar_ideal,
)

from oracles import random_codes


def _codes(n: int):
    """Four seeded codes on n neurons, sparse to dense, and their complements."""
    for code in random_codes(n, 4, seed=9800 + n, densities=(0.05, 0.3, 0.6, 0.95)):
        yield code
        yield code.complement


def _assert_conforms(artifact) -> None:
    """The artifact equals, and hashes like, its public-constructor rebuild."""
    rebuilt = type(artifact)(**{f.name: getattr(artifact, f.name) for f in fields(artifact)})
    assert rebuilt == artifact
    assert hash(rebuilt) == hash(artifact)


@pytest.mark.parametrize("n", range(1, 13))
def test_kernel_artifacts(n):
    for code in _codes(n):
        cx = downward_closure(code)
        sr = ideal_of_complex(cx)
        for artifact in (code, canonical_form(code), factor_complex(code), cx,
                         polar_ideal(code), sr, complex_of_ideal(sr)):
            _assert_conforms(artifact)
        assert complex_of_ideal(sr) == cx


@pytest.mark.parametrize("n", range(1, 9))
def test_dualized_artifacts(n):
    for code in _codes(n):
        fi, fc, pc = factor_ideal(code), factor_complex(code), polar_complex(code)
        round_trips = ((complex_of_ideal(fi), fc), (ideal_of_complex(fc), fi),
                       (ideal_of_complex(pc), polar_ideal(code)))
        for artifact in (fi, pc):
            _assert_conforms(artifact)
        for artifact, expected in round_trips:
            _assert_conforms(artifact)
            assert artifact == expected
