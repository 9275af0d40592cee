"""Property-based tests for the extension modules (partition loss, the
degree MC fixed point, serialization)."""

import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import SFParams
from repro.net.loss import PartitionLoss
from repro.util.rng import make_rng
from repro.util.serialization import to_jsonable

# ----------------------------------------------------------------------
# Partition loss: group structure fully determines lossiness at rate 1/0
# ----------------------------------------------------------------------


@given(
    groups=st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=12),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_partition_loss_respects_groups(groups, seed):
    group_of = dict(enumerate(groups))
    loss = PartitionLoss(group_of, cross_loss=1.0, base_loss=0.0)
    rng = make_rng(seed)
    for u in range(len(groups)):
        for v in range(len(groups)):
            lost = loss.is_lost(u, v, rng)
            assert lost == (groups[u] != groups[v])
    loss.heal()
    for u in range(len(groups)):
        for v in range(len(groups)):
            assert not loss.is_lost(u, v, rng)


# ----------------------------------------------------------------------
# Degree MC: the fixed point is well-behaved across its parameter domain
# ----------------------------------------------------------------------


@given(
    # dL = 0 is outside the domain: with loss the system drains toward
    # isolation (§5: "when the loss is nonzero, dL > 0"), without it the
    # chain is reducible (Lemma 6.2) and solve() raises.
    d_low=st.sampled_from([2, 4]),
    extra=st.sampled_from([6, 8, 10]),
    loss=st.sampled_from([0.0, 0.02, 0.1, 0.3]),
)
@settings(max_examples=20, deadline=None)
def test_degree_mc_fixed_point_sane(d_low, extra, loss):
    from repro.markov.degree_mc import DegreeMarkovChain

    params = SFParams(view_size=d_low + extra, d_low=d_low)
    solved = DegreeMarkovChain(params, loss_rate=loss).solve()
    assert math.isclose(float(solved.stationary.sum()), 1.0, rel_tol=1e-8)
    d_e = solved.expected_outdegree()
    assert params.d_low <= d_e <= params.view_size
    # Lemma 6.6: the balance holds in the chain's own steady state (the
    # mean-field closure leaves a residual that grows with the loss rate —
    # ≈2% relative at ℓ=0.3).
    assert math.isclose(
        solved.duplication_probability,
        loss + solved.deletion_probability,
        abs_tol=5e-3 + 0.02 * loss,
    )
    # Lemma 6.7 lower half: duplication at least covers the loss.
    assert solved.duplication_probability >= loss - 5e-3


# ----------------------------------------------------------------------
# Serialization: everything jsonable round-trips through json
# ----------------------------------------------------------------------

_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(max_size=10),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(st.integers(-100, 100), children, max_size=4),
        st.dictionaries(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), children, max_size=3
        ),
    ),
    max_leaves=20,
)


@given(value=_JSON_VALUES)
@settings(max_examples=80, deadline=None)
def test_to_jsonable_output_is_json_serializable(value):
    import json

    encoded = to_jsonable(value)
    json.dumps(encoded)  # must not raise


@given(counts=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_counter_serialization(counts):
    import json

    counter = Counter(counts)
    encoded = to_jsonable(dict(counter))
    decoded = json.loads(json.dumps(encoded))
    assert sum(decoded.values()) == len(counts)
