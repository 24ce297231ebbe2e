import numpy as np

from qupel.centralized import TrainResult

from helpers import centers, results_identical


def result(x0=0.0, gap=0.0):
    return TrainResult(x_final=np.array([x0, 0.9]), centers_final=[centers(0.0, 1.0)],
                       x_hard=np.array([0.0, 1.0]),
                       history=[{"step": 0, "F_total": 0.5, "stationarity_gap": gap}])


def test_results_identical_tells_negative_zero_from_zero():
    assert results_identical(result(), result())
    assert not results_identical(result(x0=-0.0), result())  # an array entry
    assert not results_identical(result(gap=-0.0), result())  # a history field
