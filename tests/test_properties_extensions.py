"""Property-based tests for the extension modules (variants, samplers,
partition loss, serialization)."""

import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import SFParams
from repro.core.variants import SendForgetVariant
from repro.net.loss import PartitionLoss
from repro.sampling.minwise import MinWiseSampler, SamplerBank
from repro.sampling.random_walk import walk_success_probability
from repro.util.rng import make_rng
from repro.util.serialization import to_jsonable

# ----------------------------------------------------------------------
# Variant protocol: bounds hold under any flag combination and loss pattern
# ----------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mark=st.booleans(),
    replace=st.booleans(),
    width=st.integers(min_value=1, max_value=3),
    loss_pattern=st.lists(st.booleans(), min_size=30, max_size=150),
)
@settings(max_examples=25, deadline=None)
def test_variant_bounds_under_any_configuration(seed, mark, replace, width, loss_pattern):
    params = SFParams(view_size=12, d_low=2)
    protocol = SendForgetVariant(
        params,
        mark_and_undelete=mark,
        replace_on_full=replace,
        ids_per_message=width,
    )
    n = 10
    for u in range(n):
        protocol.add_node(u, [(u + 1) % n, (u + 2) % n, (u + 3) % n, (u + 4) % n])
    rng = make_rng(seed)
    for step, lose in enumerate(loss_pattern):
        for effect in protocol.initiate_effects(step % n, rng):
            if not lose:
                protocol.deliver_effects(effect.message, rng)
    protocol.check_invariant()
    for u in range(n):
        assert 0 <= protocol.outdegree(u) <= params.view_size


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    steps=st.integers(min_value=50, max_value=300),
)
@settings(max_examples=15, deadline=None)
def test_replace_on_full_never_classically_deletes(seed, steps):
    protocol = SendForgetVariant(SFParams(view_size=8, d_low=2), replace_on_full=True)
    n = 8
    for u in range(n):
        protocol.add_node(u, [(u + 1) % n, (u + 2) % n, (u + 3) % n, (u + 4) % n])
    rng = make_rng(seed)
    for step in range(steps):
        for effect in protocol.initiate_effects(step % n, rng):
            protocol.deliver_effects(effect.message, rng)
    assert protocol.stats.deletions == 0


# ----------------------------------------------------------------------
# Min-wise samplers
# ----------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    stream=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200),
)
@settings(max_examples=50, deadline=None)
def test_minwise_sample_is_hash_argmin(seed, stream):
    sampler = MinWiseSampler(make_rng(seed))
    for node_id in stream:
        sampler.observe(node_id)
    best = min(set(stream), key=sampler._hash)
    assert sampler.sample == best


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    stream=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=100),
    extra=st.lists(st.integers(min_value=0, max_value=30), max_size=100),
)
@settings(max_examples=50, deadline=None)
def test_minwise_monotone_under_more_observations(seed, stream, extra):
    """Observing more ids can only improve (lower) the tracked hash."""
    sampler = MinWiseSampler(make_rng(seed))
    for node_id in stream:
        sampler.observe(node_id)
    first_hash = sampler._hash(sampler.sample)
    for node_id in extra:
        sampler.observe(node_id)
    assert sampler._hash(sampler.sample) <= first_hash


@given(
    slots=st.integers(min_value=1, max_value=8),
    stream=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=60),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_bank_slots_independent(slots, stream, seed):
    bank = SamplerBank(slots, make_rng(seed))
    for node_id in stream:
        bank.observe(node_id)
    samples = bank.samples()
    assert len(samples) == slots
    assert all(s in set(stream) for s in samples)


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
# Walk success probability: multiplicativity
# ----------------------------------------------------------------------


@given(
    loss=st.floats(min_value=0.0, max_value=0.9),
    a=st.integers(min_value=0, max_value=50),
    b=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=60, deadline=None)
def test_walk_success_multiplicative(loss, a, b):
    combined = walk_success_probability(loss, a + b)
    product = walk_success_probability(loss, a) * walk_success_probability(loss, b)
    assert math.isclose(combined, product, rel_tol=1e-9, abs_tol=1e-12)


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
