"""Algebraic invariants of the structure constants, as property tests.

The coefficients come from localization, the fast engine, so random
triples stay cheap.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from shiftedschur import ZERO, Partition, YSpec, partitions_up_to  # noqa: E402
from shiftedschur.structconst import structure_constants_via_localization  # noqa: E402

SMALL = partitions_up_to(2, 2)
SPECS = (YSpec.symbolic(), YSpec.standard(0), YSpec.standard(2))


def _product(a: Partition, b: Partition, n: int, spec: YSpec) -> dict:
    return structure_constants_via_localization(a, b, n, spec).coefficients


def _linear(coefficients: dict, times) -> dict:
    """sum_rho coefficients[rho] * times(rho), where times(rho) is a
    nu -> coefficient map."""
    out: dict = {}
    for rho, c in coefficients.items():
        for nu, d in times(rho).items():
            out[nu] = out.get(nu, ZERO) + c * d
    return {nu: c for nu, c in out.items() if c}


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(SMALL), st.sampled_from(SMALL), st.sampled_from(SMALL), st.sampled_from(SPECS)
)
def test_structure_constants_associative(lam, mu, kappa, spec):
    # sum_rho C^rho_{lam mu} C^nu_{rho kappa} = sum_sigma C^sigma_{mu kappa} C^nu_{lam sigma}
    n = 2 * (lam.weight + mu.weight + kappa.weight) + 1
    left = _linear(_product(lam, mu, n, spec), lambda rho: _product(rho, kappa, n, spec))
    right = _linear(_product(mu, kappa, n, spec), lambda sigma: _product(lam, sigma, n, spec))
    assert left == right
