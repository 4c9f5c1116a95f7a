"""Calibration of the probe pipeline on fields of known exponent.

Each field is sigma = g(x_d) on every component, constant in t, sampled
at the Gauss points of the mixed-boundary-kinematic grid and read as a
normal-axis probe reads a solved history: seminorm_table with that
scenario's cutoff, sup over t, and a fit over the default space window
[2/n, 1/4].  For g = x^a on (0, 1) the true exponent is s = a + 1/2; a
smooth g has s = 1.

The readings are biased, not noisy.  At n = 16 and 32 the rough field
reads up to about 0.13 high and the smooth ones up to about 0.10 low
(README, "What the shipped probes can and cannot show"), and a
normal-axis exponent of a solved run carries that bias.
"""

import numpy as np
import pytest

from plastprobe.evolution import FieldHistory
from plastprobe.probes import fit_exponent, seminorm_table
from plastprobe.scenario import load_benchmark

# field: (g, true s, reading at n = 16, reading at n = 32)
CALIBRATION = {
    "x^-0.3": (lambda x: x ** -0.3, 0.2, 0.331, 0.314),
    "x^0.1": (lambda x: x ** 0.1, 0.6, 0.579, 0.583),
    "x^0.3": (lambda x: x ** 0.3, 0.8, 0.705, 0.718),
    "sin(3x)": (lambda x: np.sin(3.0 * x), 1.0, 0.901, 0.931),
}
# the stated bias band: s_hat - s lies in [-BIAS_LOW, BIAS_HIGH]
BIAS_HIGH = 0.135
BIAS_LOW = 0.10


def normal_sup_fit(g, n):
    """The fitted normal-axis sup exponent of sigma = g(x_d)."""
    scn = load_benchmark("mixed-boundary-kinematic", n=n)
    grid = scn.grid()
    times = np.linspace(0.0, scn.T, 2)
    sigma = np.broadcast_to(g(grid.qp_coords[..., -1])[None, ..., None],
                            (times.size, grid.ncells, grid.nqp, grid.m))
    zeros = np.zeros(sigma.shape)
    hist = FieldHistory(times=times, u=np.zeros((times.size, grid.nnodes,
                                                 grid.d)),
                        sigma=sigma, xi=zeros, ep=zeros, grid=grid,
                        params=None)
    table = seminorm_table(hist, "normal", "sigma", scn.cutoff())
    return fit_exponent(table.h, table.values("sup"),
                        scn.fit_window("space"))


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("name", list(CALIBRATION))
def test_normal_sup_exponent_of_a_known_field(name, n):
    g, s_true, at16, at32 = CALIBRATION[name]
    fit = normal_sup_fit(g, n)
    assert fit.n_used == (2 if n == 16 else 3)
    assert not fit.zero_rows
    # the tabulated reading, to its three digits
    assert fit.s_hat == pytest.approx(at16 if n == 16 else at32, abs=5e-4)
    assert -BIAS_LOW <= fit.s_hat - s_true <= BIAS_HIGH
