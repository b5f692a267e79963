"""Each parameter domain is stated once: alpha by depcore.check_tail_index,
psi and the dimension by Logistic, rho and upsilon by ExtremalT. Every entry
point that takes one of them must reject it with that one message, and every
count must be an integer."""

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
from randmax.estimators import EstimatorPair, FitSettings, gpwm_weights
from randmax.harness import ExperimentConfig
from randmax.samplers import (
    RngStream,
    sample_experiment1,
    sample_experiment1_block,
    sample_experiment2,
    sample_logistic_maxstable,
    sample_pareto_block_size,
    sample_positive_stable,
)


def _config(experiment=1, alpha=0.5, psi=0.5, rho=0.5, upsilon=1.0):
    grids = dict(psis=(psi,)) if experiment == 1 else dict(rhos=(rho,), upsilons=(upsilon,))
    return ExperimentConfig(
        experiment=experiment,
        alphas=(alpha,),
        sizes=(50,),
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


ALPHA_ENTRY_POINTS = {
    "sample_positive_stable": lambda a: sample_positive_stable(a, RngStream(1)),
    "sample_pareto_block_size": lambda a: sample_pareto_block_size(a, RngStream(1)),
    "sample_experiment1": lambda a: sample_experiment1(0.5, a, 10, RngStream(1)),
    "sample_experiment2": lambda a: sample_experiment2(0.5, 1.0, a, 10, RngStream(1)),
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
    "sample_experiment1": lambda p: sample_experiment1(p, 0.5, 10, RngStream(1)),
    "sample_experiment1_block": lambda p: sample_experiment1_block(p, 0.5, 10, [RngStream(1)]),
    "ExperimentConfig": lambda p: _config(psi=p),
}


@pytest.mark.parametrize("psi", [0.0, 1.5, float("nan")])
@pytest.mark.parametrize("entry", sorted(PSI_ENTRY_POINTS))
def test_psi_rule_is_the_logistic_one(entry, psi):
    message = _message(lambda: PSI_ENTRY_POINTS[entry](psi))
    assert message == _message(lambda: Logistic(psi))
    assert message.startswith("logistic dependence parameter must be in (0,1]")


EXTREMAL_T_ENTRY_POINTS = {
    "sample_experiment2": lambda r, u: sample_experiment2(r, u, 0.5, 10, RngStream(1)),
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


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: sample_experiment1(0.5, 0.5, 50.7, RngStream(1)), "n"),
        (lambda: sample_experiment1(0.5, 0.5, 50, RngStream(1), d=2.9), "d"),
        (lambda: sample_logistic_maxstable(0.5, 2.0, RngStream(1)), "d"),
        (lambda: sample_experiment2(0.5, 1.0, 0.5, 5.9, RngStream(1)), "n"),
        (lambda: sample_experiment2(0.5, 1.0, 0.5, 5, RngStream(1), n_prime=20.5), "n_prime"),
        (lambda: tail_prob_approx(Logistic(0.5), 0.5, [1.0, 1.0], 2.5), "n"),
        (lambda: gpwm_weights(5.5, 2), "n"),
        (lambda: edge_grid(5.5), "grid size"),
        (lambda: Logistic(0.5, dim=2.5), "dim"),
        (lambda: Independence(dim=2.5), "dim"),
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
    sample = sample_experiment2(0.5, 1.0, 0.5, np.int64(5), RngStream(1), n_prime=np.int32(20))
    assert (sample.n, sample.meta["n"], sample.meta["inner_size"]) == (5, 5, 20)
    assert type(sample.meta["inner_size"]) is int
    # L((1, 1) / 2)^(1/2) with L(z) = |z|_2 for the logistic model at psi = 1/2
    p = tail_prob_approx(Logistic(0.5), 0.5, [1.0, 1.0], np.int64(2))
    assert p == pytest.approx(0.5**0.25, rel=1e-12)
