"""L7.5 — exact global-MC checks (Lemmas 7.1-7.5 on tiny systems).

* lossless simple-edge component: reversible, doubly stochastic, uniform
  stationary distribution (Lemmas 7.3-7.5 exactly);
* lossless parallel-edge component: the documented caveat — per-state
  uniformity breaks, membership uniformity (Lemma 7.6) survives;
* lossy chain: strongly connected and ergodic (Lemmas 7.1/7.2).
"""

from conftest import emit

from repro.experiments import lemma_7_5


def run_all():
    return (
        lemma_7_5.run_lossless_simple(),
        lemma_7_5.run_lossless_multiedge(),
        lemma_7_5.run_lossy(0.3),
    )


def test_lemma_7_5():
    simple, multi, lossy = run_all()
    emit(
        "Lemmas 7.1-7.5 — exact global Markov chains",
        "\n".join([simple.format(), multi.format(), lossy.format()]),
    )

    assert simple.doubly_stochastic and simple.reversible and simple.stationary_uniform
    assert simple.membership_uniform_spread < 1e-10

    assert not multi.stationary_uniform  # the parallel-edge caveat
    assert multi.membership_uniform_spread < 1e-10

    assert lossy.irreducible and lossy.aperiodic
