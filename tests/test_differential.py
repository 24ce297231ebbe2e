"""The stacked trainer against the per-client reference on randomly drawn cases.

Each case draws, from its own seed, a population and a ``HyperParams``: 1-6 clients
of MLP, quadratic or logistic losses, each client with its own m per group; hard or
soft quantization, full batches or minibatches, fine-tuning from any step or none,
zero or nonzero lambda, lambda_p, eta2 and eta3, federated or local, and step sizes
large enough that some runs diverge. ``federated._train`` must match
``helpers.reference_train`` bit for bit, or both must raise the same DivergenceError
message. A failing case prints its seed and parameters, so it can become a named case
in ``test_stacked.py``.
"""

import numpy as np
import pytest

from qupel import federated
from qupel.centralized import DivergenceError, HyperParams, LambdaSchedule
from qupel.data import Dataset
from qupel.federated import ClientState
from qupel.losses import LogisticLoss, MlpLoss, QuadraticLoss, QuantLayout
from qupel.quantizer import CenterVector, QuantConfig
from qupel.rng import Rng

from helpers import assert_result_matches_reference, reference_train

CASES = 300


def _pick(rng, options):
    return options[rng.randint(len(options))]


def _centers(rng, m, c_max):
    """m distinct points of a 17-point grid over [-c_max, c_max], the bounds included."""
    grid = np.linspace(-c_max, c_max, 17)
    return CenterVector(np.sort(grid[rng.sample(17, m)]), c_max=c_max)


def _losses(rng, kind, n):
    """n losses of one kind and dimension, and the test set of each (or None)."""
    if kind == "quadratic":
        d = 1 + rng.randint(6)
        return [QuadraticLoss(rng.uniform(-1, 1, d), rng.uniform(0.5, 2, d))
                for _ in range(n)], [None] * n
    rows = [_pick(rng, [4, 6, 9]) for _ in range(n)] if rng.random() < 0.3 \
        else [_pick(rng, [4, 6, 9])] * n  # one row count runs the batched MLP pass
    l2 = _pick(rng, [0.0, 0.05])
    if kind == "logistic":
        d = 1 + rng.randint(5)
        return [LogisticLoss(rng.normal(r * d).reshape(r, d),
                             np.where(rng.uniform(0, 1, r) < 0.5, -1.0, 1.0), l2)
                for r in rows], [None] * n
    sizes = (3, 2 + rng.randint(3), 2 + rng.randint(2))
    losses, tests = [], []
    for r in rows:
        labels = np.array([rng.randint(sizes[2]) for _ in range(r)])
        losses.append(MlpLoss(sizes, rng.normal(r * 3).reshape(r, 3), labels, l2))
        tests.append(Dataset(rng.normal(12).reshape(4, 3), np.array([0, 1, 0, 1]))
                     if rng.random() < 0.5 else None)
    return losses, tests


def _layout(rng, kind, loss):
    if kind == "mlp":
        return QuantLayout.for_mlp(loss)
    d = loss.dim
    options = [((0, d),), ()]
    if d > 1:
        options.append(((1, d),))
    if d > 2:
        options.append(((0, 1), (2, d)))
    return QuantLayout(d, _pick(rng, options))


def _hyper(rng, kind):
    steps = rng.randint(9)
    lam = _pick(rng, [LambdaSchedule(), LambdaSchedule.constant(rng.uniform(0.0, 1.0)),
                      LambdaSchedule.linear(rng.uniform(0.0, 0.1), cap=rng.uniform(0.0, 0.5))])
    return HyperParams(
        eta1=10.0 ** rng.uniform(-2.0, 1.0),
        eta2=0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-3.0, 0.0),
        steps=steps,
        eta3=_pick(rng, [0.0, rng.uniform(0.0, 1.0)]),
        lambda_schedule=lam,
        lambda_p=_pick(rng, [0.0, rng.uniform(0.0, 2.0)]),
        tau=1 + rng.randint(3),
        fine_tune_start=_pick(rng, [None, rng.randint(steps + 1)]),
        quant_cfg=_pick(rng, [QuantConfig(hard_limit=True),
                              QuantConfig(sharpness=10.0 ** rng.uniform(-0.3, 1.3))]),
        divergence_factor=_pick(rng, [1e6, 10.0]),
        metrics_every=1 + rng.randint(3),
        batch_size=None if kind == "quadratic" or rng.random() < 0.5 else 1 + rng.randint(6),
    )


def draw_case(seed):
    """``(clients, hp, federated)`` of one case, all drawn from ``Rng(seed)``."""
    rng = Rng(seed)
    n = 1 + rng.randint(6)
    kind = _pick(rng, ["mlp", "quadratic", "logistic"])
    losses, tests = _losses(rng, kind, n)
    layout = _layout(rng, kind, losses[0])
    c_max = _pick(rng, [1.0, 3.0])
    ids = rng.sample(10, n).tolist()  # in no order: both trainers sort by id
    clients = []
    for cid, loss, test in zip(ids, losses, tests):
        x0 = rng.uniform(-1.5, 1.5, loss.dim)
        w0 = x0.copy() if rng.random() < 0.5 else rng.uniform(-1.5, 1.5, loss.dim)
        cs = [_centers(rng, _pick(rng, [1, 2, 4, 8]), c_max) for _ in layout.groups]
        clients.append(ClientState(id=cid, x=x0, centers=cs, w_local=w0, loss=loss,
                                   layout=layout, test=test, data_rng=Rng(1000 * seed + cid)))
    return clients, _hyper(rng, kind), rng.random() < 0.5


@pytest.mark.parametrize("seed", range(CASES))
def test_stacked_trainer_matches_the_reference(seed):
    clients, hp, fed = draw_case(seed)
    print(f"case seed={seed} federated={fed} losses={type(clients[0].loss).__name__} "
          f"ids={[cs.id for cs in clients]} layout={clients[0].layout} "
          f"m={[[c.m for c in cs.centers] for cs in clients]}\n{hp}")
    try:
        got = federated._train(clients, hp, federated=fed)
    except DivergenceError as stacked:
        with pytest.raises(DivergenceError) as reference:
            reference_train(clients, hp, federated=fed)
        assert str(reference.value) == str(stacked)
    else:
        assert_result_matches_reference(got, clients, hp, fed)
