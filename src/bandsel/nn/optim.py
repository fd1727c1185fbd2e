"""Adam optimizer with bias correction over one flat parameter vector.

The moment decays and the denominator offset are the fixed constants of
Kingma & Ba (2015): beta1 = 0.9, beta2 = 0.999, eps = 1e-8. Only the
learning rate is configurable.
"""

from __future__ import annotations

import numpy as np

from bandsel.errors import NumericError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """First/second moment vectors shaped like the parameters, plus the step counter."""

    def __init__(self, params):
        self.first_moment = np.zeros_like(params)
        self.second_moment = np.zeros_like(params)
        self.step_count = 0


def adam_step(params, grads, state, learning_rate, names=None):
    """One in-place Adam update of a flat parameter vector.

    Moments decay with BETA1/BETA2, are bias-corrected by the step count,
    and every entry moves by -lr * m_hat / (sqrt(v_hat) + EPS). ``names``
    optionally maps parameter names to slices of the vector; it labels the
    error raised for a non-finite gradient.

    Unchecked here: the rate is positive (``TrainConfig`` checks it), and
    ``grads`` and ``state`` are shaped like ``params`` (``AdamState(params)``).
    """
    finite = np.isfinite(grads)
    if not finite.all():
        index = int(np.argmin(finite))
        name = next((n for n, s in (names or {}).items() if s.start <= index < s.stop), f"entry {index}")
        raise NumericError(f"non-finite gradient for parameter {name}")
    t = state.step_count + 1
    m, v = state.first_moment, state.second_moment
    m *= BETA1
    m += (1.0 - BETA1) * grads
    v *= BETA2
    v += (1.0 - BETA2) * grads * grads
    params -= learning_rate * (m / (1.0 - BETA1 ** t)) / (np.sqrt(v / (1.0 - BETA2 ** t)) + EPS)
    state.step_count = t
