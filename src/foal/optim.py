"""Plain SGD and Adam over named parameter sets.

Steppers mutate parameter arrays in place and keep any state (moments, step
count) keyed by parameter name, so one optimizer instance follows one
ParamSet through training. Every parameter must have a gradient; a missing
name is an error rather than a silent skip.
"""

from __future__ import annotations

import numpy as np

from foal.network import ParamSet


class MissingGradError(KeyError):
    pass


def _pull_grad(grads: dict[str, np.ndarray], name: str, param) -> np.ndarray:
    if name not in grads:
        raise MissingGradError(f"no gradient supplied for parameter '{name}'")
    g = np.asarray(grads[name], dtype=np.float64)
    if g.shape != param.data.shape:
        raise ValueError(f"gradient shape {g.shape} for '{name}' does not match "
                         f"parameter shape {param.data.shape}")
    return g


class SGD:
    """theta <- theta - lr * grad."""

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)

    def step(self, params: ParamSet, grads: dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            g = _pull_grad(grads, name, p)
            p.data -= self.learning_rate * g


class Adam:
    """Adam with bias-corrected first and second moments."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: ParamSet, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for name, p in params.items():
            g = _pull_grad(grads, name, p)
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                self.m[name] = m
                self.v[name] = np.zeros_like(p.data)
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + self.eps)
