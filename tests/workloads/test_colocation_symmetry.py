"""A colocated pair is one evaluation: both members' rates come from one model call.

``beneficial_pair_row`` asks ``colocated_throughputs(a, b, name)`` once per
accelerator and reads member 1's rate off ``second``.  That rests on the
models being symmetric bit for bit — ``colocated_throughputs(a, b, n).second``
is ``colocated_throughputs(b, a, n).first``, and memory feasibility does not
depend on the order — for the true :class:`ColocationModel` and for the
:class:`ThroughputEstimator` alike, over all 26 x 26 job-type pairs and the
three accelerators.  ``_per_member_pair_row`` is the earlier formula (two
:func:`member_throughputs` rows, then a benefit test per column) kept as the
oracle: the single-evaluation row must equal it bit for bit, and an
estimator fed the pairs in the same order must draw its fingerprints in the
same order (its estimates are then equal too).
"""

import numpy as np
import pytest

from repro.estimator import ThroughputEstimator
from repro.workloads import ColocationModel, ThroughputOracle
from repro.workloads.colocation import beneficial_pair_row, member_throughputs

_ORACLE = ThroughputOracle()
_TYPES = tuple(_ORACLE.job_types.names)
_NAMES = tuple(_ORACLE.registry.names)
#: Few reference types keep fingerprinting cheap and send most lookups down
#: the estimator's non-reference fallback, whose values depend on call order.
_REFERENCES = _TYPES[::7]


def _per_member_pair_row(model, job_type_a, job_type_b, names, threshold=1.1):
    """The earlier ``beneficial_pair_row``: each member evaluated on its own."""
    rates = np.array(
        [
            member_throughputs(model, job_type_a, job_type_b, names),
            member_throughputs(model, job_type_b, job_type_a, names),
        ]
    )
    keep = [
        bool(rates[0, column] > 0.0 and rates[1, column] > 0.0)
        and model.combined_normalized_throughput(job_type_a, job_type_b, name) >= threshold
        for column, name in enumerate(names)
    ]
    return np.where(keep, rates, 0.0) if any(keep) else None


def _estimator(seed=5):
    return ThroughputEstimator(
        ColocationModel(_ORACLE), reference_job_types=_REFERENCES, profile_fraction=0.5, seed=seed
    )


def _models():
    return {"true model": ColocationModel(_ORACLE), "estimator": _estimator()}


def _same(left, right):
    if left is None or right is None:
        return left is None and right is None
    return (left.dtype, left.shape, left.tobytes()) == (right.dtype, right.shape, right.tobytes())


@pytest.mark.parametrize("kind", ["true model", "estimator"])
def test_pair_queries_are_symmetric_bit_for_bit(kind):
    model = _models()[kind]
    for a in _TYPES:
        for b in _TYPES:
            for name in _NAMES:
                forward = model.colocated_throughputs(a, b, name)
                backward = model.colocated_throughputs(b, a, name)
                assert forward.second.hex() == backward.first.hex(), (a, b, name)
                assert forward.first.hex() == backward.second.hex(), (a, b, name)
                assert model.fits_in_memory(a, b, name) == model.fits_in_memory(b, a, name)


def test_true_model_pair_row_equals_per_member_formula():
    model = ColocationModel(_ORACLE)
    for a in _TYPES:
        for b in _TYPES:
            expected = _per_member_pair_row(model, a, b, _NAMES)
            assert _same(beneficial_pair_row(model, a, b, _NAMES), expected), (a, b)


def test_estimator_pair_row_equals_per_member_formula_in_the_same_call_order():
    """Two estimators with one seed, fed the pairs in one order: equal rows, equal fingerprints."""
    evaluated, oracle = _estimator(), _estimator()
    beneficial = 0
    for a in _TYPES:
        for b in _TYPES:
            row = beneficial_pair_row(evaluated, a, b, _NAMES)
            assert _same(row, _per_member_pair_row(oracle, a, b, _NAMES)), (a, b)
            beneficial += row is not None
    assert beneficial > 0
    for job_type in _TYPES:
        assert evaluated.matched_reference(job_type) == oracle.matched_reference(job_type)
    assert evaluated._estimates == oracle._estimates


def test_one_model_call_per_accelerator_first_call_in_pair_order():
    calls = []

    class Recording(ColocationModel):
        def colocated_throughputs(self, *args, **kwargs):
            calls.append(args)
            return super().colocated_throughputs(*args, **kwargs)

    beneficial_pair_row(Recording(_ORACLE), "resnet18-bs32", "lstm-bs5", _NAMES)
    assert calls == [("resnet18-bs32", "lstm-bs5", name) for name in _NAMES]
