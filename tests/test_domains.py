"""Each parameter domain is stated once: alpha by depcore.check_tail_index,
psi and the dimension by Logistic, rho and upsilon by ExtremalT, the sample
size and pipeline 2's inner count by samplers.check_sample_size and
check_inner_size, a sampler's streams by one samplers check, and the
estimator names by one check per name set. Every entry point that takes
one of them must reject it with that one message, and every count must be
an integer."""

import re

import numpy as np
import pytest

from randmax.depcore import (
    AlphaScaled,
    ExtremalT,
    Independence,
    Logistic,
    check_tail_index,
    edge_grid,
    lambda_inverse_link,
    tail_prob_approx,
)
from randmax.errors import DomainError
from randmax.estimators import (
    EstimatorPair,
    FitSettings,
    endpoint_correct,
    estimate_alpha,
    gpwm_weights,
    pickands_points,
)
from randmax.harness import ExperimentConfig
from randmax.samplers import (
    RngStream,
    check_inner_size,
    check_sample_size,
    sample_experiment1,
    sample_experiment2,
    sample_logistic_maxstable,
    sample_pareto_block_size,
    sample_positive_stable,
)


def _config(experiment=1, alpha=0.5, psi=0.5, rho=0.5, upsilon=1.0, n=50, inner_size=500):
    grids = dict(psis=(psi,)) if experiment == 1 else dict(rhos=(rho,), upsilons=(upsilon,))
    return ExperimentConfig(
        experiment=experiment,
        alphas=(alpha,),
        sizes=(n,),
        inner_size=inner_size,
        replications=2,
        pairs=(EstimatorPair("P", "GPWM"),),
        fit=FitSettings(grid_size=21),
        **grids,
    )


def _message(make):
    """The DomainError message of make()."""
    with pytest.raises(DomainError) as exc:
        make()
    return str(exc.value)


#: a sampler checks its parameters before it draws, however many streams it draws;
#: the ``*_block`` entries run it on a block of two streams
_TWO = (RngStream(1, 0), RngStream(1, 1))

ALPHA_ENTRY_POINTS = {
    "sample_positive_stable": lambda a: sample_positive_stable(a, RngStream(1)),
    "sample_pareto_block_size": lambda a: sample_pareto_block_size(a, RngStream(1)),
    "sample_experiment1": lambda a: sample_experiment1(0.5, a, 10, [RngStream(1)]),
    "sample_experiment2": lambda a: sample_experiment2(0.5, 1.0, a, 10, [RngStream(1)]),
    "sample_experiment2_block": lambda a: sample_experiment2(0.5, 1.0, a, 10, _TWO),
    "AlphaScaled": lambda a: AlphaScaled(Logistic(0.5), a),
    "lambda_inverse_link": lambda a: lambda_inverse_link(0.5, a),
    "tail_prob_approx": lambda a: tail_prob_approx(Logistic(0.5), a, [1.0, 1.0], 10),
    "ExperimentConfig": lambda a: _config(alpha=a),
}


@pytest.mark.parametrize("alpha", [0.0, 1.0, float("nan")])
@pytest.mark.parametrize("entry", sorted(ALPHA_ENTRY_POINTS))
def test_tail_index_rule_is_stated_once(entry, alpha):
    message = _message(lambda: ALPHA_ENTRY_POINTS[entry](alpha))
    assert message == _message(lambda: check_tail_index(alpha))
    assert re.match(r"tail index must be in \(0,1\), got ", message)


PSI_ENTRY_POINTS = {
    "sample_logistic_maxstable": lambda p: sample_logistic_maxstable(p, 2, RngStream(1)),
    "sample_experiment1": lambda p: sample_experiment1(p, 0.5, 10, [RngStream(1)]),
    "sample_experiment1_block": lambda p: sample_experiment1(p, 0.5, 10, _TWO),
    "ExperimentConfig": lambda p: _config(psi=p),
}


@pytest.mark.parametrize("psi", [0.0, 1.5, float("nan")])
@pytest.mark.parametrize("entry", sorted(PSI_ENTRY_POINTS))
def test_psi_rule_is_the_logistic_one(entry, psi):
    message = _message(lambda: PSI_ENTRY_POINTS[entry](psi))
    assert message == _message(lambda: Logistic(psi))
    assert message.startswith("logistic dependence parameter must be in (0,1]")


EXTREMAL_T_ENTRY_POINTS = {
    "sample_experiment2": lambda r, u: sample_experiment2(r, u, 0.5, 10, [RngStream(1)]),
    "sample_experiment2_block": lambda r, u: sample_experiment2(r, u, 0.5, 10, _TWO),
    "ExperimentConfig": lambda r, u: _config(experiment=2, rho=r, upsilon=u),
}


@pytest.mark.parametrize(
    "rho, upsilon, start",
    [
        (-1.0, 1.0, "correlation must be in (-1,1)"),
        (1.0, 1.0, "correlation must be in (-1,1)"),
        (float("nan"), 1.0, "correlation must be in (-1,1)"),
        (0.5, 0.0, "degrees of freedom must be > 0"),
        (0.5, -1.0, "degrees of freedom must be > 0"),
        (0.5, float("nan"), "degrees of freedom must be > 0"),
    ],
)
@pytest.mark.parametrize("entry", sorted(EXTREMAL_T_ENTRY_POINTS))
def test_rho_and_upsilon_rules_are_the_extremal_t_ones(entry, rho, upsilon, start):
    message = _message(lambda: EXTREMAL_T_ENTRY_POINTS[entry](rho, upsilon))
    assert message == _message(lambda: ExtremalT(rho, upsilon))
    assert message.startswith(start)


SAMPLE_SIZE_ENTRY_POINTS = {
    "sample_experiment1": lambda n: sample_experiment1(0.5, 0.5, n, [RngStream(1)]),
    "sample_experiment1_block": lambda n: sample_experiment1(0.5, 0.5, n, _TWO),
    "sample_experiment2": lambda n: sample_experiment2(0.5, 1.0, 0.5, n, [RngStream(1)]),
    "sample_experiment2_block": lambda n: sample_experiment2(0.5, 1.0, 0.5, n, _TWO),
    "ExperimentConfig": lambda n: _config(n=n),
}

INNER_SIZE_ENTRY_POINTS = {
    "sample_experiment2": lambda m: sample_experiment2(0.5, 1.0, 0.5, 10, [RngStream(1)], m),
    "sample_experiment2_block": lambda m: sample_experiment2(0.5, 1.0, 0.5, 10, _TWO, m),
    "ExperimentConfig": lambda m: _config(experiment=2, inner_size=m),
}


@pytest.mark.parametrize("n", [1, 0, -3])
@pytest.mark.parametrize("entry", sorted(SAMPLE_SIZE_ENTRY_POINTS))
def test_sample_size_rule_is_stated_once(entry, n):
    message = _message(lambda: SAMPLE_SIZE_ENTRY_POINTS[entry](n))
    assert message == _message(lambda: check_sample_size("n", n))
    assert message == f"sample size must be >= 2, got {n}"


@pytest.mark.parametrize("n_prime", [0, -1])
@pytest.mark.parametrize("entry", sorted(INNER_SIZE_ENTRY_POINTS))
def test_inner_size_rule_is_stated_once(entry, n_prime):
    message = _message(lambda: INNER_SIZE_ENTRY_POINTS[entry](n_prime))
    assert message == _message(lambda: check_inner_size("n_prime", n_prime))
    assert message == f"inner replication count must be >= 1, got {n_prime}"


RNGS_ENTRY_POINTS = {
    "sample_experiment1": lambda r: sample_experiment1(0.5, 0.5, 10, r),
    "sample_experiment2": lambda r: sample_experiment2(0.5, 1.0, 0.5, 10, r),
}


@pytest.mark.parametrize(
    "rngs, message",
    [
        (RngStream(1), "rngs must be a sequence of streams, one per sample, got one RngStream"),
        (
            RngStream(1).generator(),
            "rngs must be a sequence of streams, one per sample, got one Generator",
        ),
        ((), "rngs must hold at least one stream"),
        ([], "rngs must hold at least one stream"),
    ],
    ids=["stream", "generator", "empty-tuple", "empty-list"],
)
@pytest.mark.parametrize("entry", sorted(RNGS_ENTRY_POINTS))
def test_rngs_rule_is_stated_once(entry, rngs, message):
    # a sampler draws one sample per stream, so a bare stream or none is refused
    assert _message(lambda: RNGS_ENTRY_POINTS[entry](rngs)) == message


_U = np.array([[0.2, 0.4], [0.6, 0.8]])

PICK_ENTRY_POINTS = {
    "EstimatorPair": lambda name: EstimatorPair(name, "GPWM"),
    "endpoint_correct": lambda name: endpoint_correct(np.ones(3), edge_grid(3), name),
    "pickands_points": lambda name: pickands_points(_U, np.array([[0.5, 0.5]]), name),
}

TAIL_METHOD_ENTRY_POINTS = {
    "EstimatorPair": lambda name: EstimatorPair("P", name),
    "estimate_alpha": lambda name: estimate_alpha(np.array([[1.0, 2.0, 3.0]]), (name,), 2),
}


@pytest.mark.parametrize("entry", sorted(PICK_ENTRY_POINTS))
def test_dependence_estimator_names_are_checked_once(entry):
    message = _message(lambda: PICK_ENTRY_POINTS[entry]("PX"))
    assert message == "unknown dependence estimator 'PX'"


@pytest.mark.parametrize("entry", sorted(TAIL_METHOD_ENTRY_POINTS))
def test_tail_estimator_names_are_checked_once(entry):
    message = _message(lambda: TAIL_METHOD_ENTRY_POINTS[entry]("MLE"))
    assert message == "unknown tail estimator 'MLE'"


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: sample_experiment1(0.5, 0.5, 50.7, [RngStream(1)]), "n"),
        (lambda: sample_experiment1(0.5, 0.5, 50, [RngStream(1)], d=2.9), "d"),
        (lambda: sample_logistic_maxstable(0.5, 2.0, RngStream(1)), "d"),
        (lambda: sample_experiment2(0.5, 1.0, 0.5, 5.9, [RngStream(1)]), "n"),
        (lambda: sample_experiment2(0.5, 1.0, 0.5, 5, [RngStream(1)], n_prime=20.5), "n_prime"),
        (lambda: tail_prob_approx(Logistic(0.5), 0.5, [1.0, 1.0], 2.5), "n"),
        (lambda: gpwm_weights(5.5, 2), "n"),
        (lambda: edge_grid(5.5), "grid size"),
        (lambda: Logistic(0.5, dim=2.5), "dim"),
        (lambda: Independence(dim=2.5), "dim"),
        (lambda: ExtremalT(0.5, 1.0, dim=2.0), "dim"),
        (lambda: sample_experiment2(0.5, 1.0, 0.5, 5.0, (RngStream(1),)), "n"),
    ],
)
def test_counts_must_be_integers(make, field):
    # a fraction would be truncated, or computed with as it is
    with pytest.raises(DomainError, match=rf"^{re.escape(field)} must be an integer"):
        make()


@pytest.mark.parametrize(
    "make",
    [lambda d: Logistic(0.5, dim=d), lambda d: Independence(dim=d)],
    ids=["Logistic", "Independence"],
)
def test_dimension_rule_is_shared(make):
    with pytest.raises(DomainError, match=r"^dimension must be >= 2, got 1$"):
        make(1)
    assert make(np.int64(3)).dim == 3


def test_numpy_integer_counts_pass():
    sample = sample_experiment2(0.5, 1.0, 0.5, np.int64(5), [RngStream(1)], n_prime=np.int32(20))
    assert (sample.xi.shape[1], sample.meta["n"], sample.meta["inner_size"]) == (5, 5, 20)
    assert type(sample.meta["inner_size"]) is int
    # L((1, 1) / 2)^(1/2) with L(z) = |z|_2 for the logistic model at psi = 1/2
    p = tail_prob_approx(Logistic(0.5), 0.5, [1.0, 1.0], np.int64(2))
    assert p == pytest.approx(0.5**0.25, rel=1e-12)
