"""Analytic infinitesimal generators of (X, psi) and their MC validation.

Under the observation measure the pair (X, psi) is driven by one Brownian
motion, giving the generator

    L phi = mu_bar phi_x + 1/2 sigma^2 phi_xx
          + 1/2 w^2 pi^2 (1-pi)^2 phi_pipi + sigma w pi (1-pi) phi_xpi.

Conditioning on the regime tilts the innovation by +w(1-psi) (regime 1) or
-w psi (regime 0), which replaces the X-drift by mu_1 / mu_0 and adds the
psi-drift +w^2 pi (1-pi)^2 / -w^2 pi^2 (1-pi).  The coefficients come from
``model.generator_coefficients``, the same function the PDE operator is
assembled from, so ``generator_check`` validates the PDE's generator against
one-step Monte Carlo drifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core import RandomDevice
from .model import DiffusionModel, filter_step, generator_coefficients

__all__ = ["TestFunction", "analytic_generator", "mc_generator_drift", "generator_check",
           "standard_test_functions"]


@dataclass(frozen=True)
class TestFunction:
    """Twice-differentiable phi(pi, x) supplied with its derivatives."""

    name: str
    value: Callable
    dx: Callable
    dxx: Callable
    dpi: Callable
    dpipi: Callable
    dxpi: Callable


def standard_test_functions() -> list[TestFunction]:
    """Six smooth probes covering pure, quadratic and mixed dependence."""
    z = lambda p, x: np.zeros_like(np.asarray(x, dtype=float) + p)
    return [
        TestFunction("x", lambda p, x: x + 0 * p, lambda p, x: 1 + 0 * p + 0 * x, z, z, z, z),
        TestFunction("pi", lambda p, x: p + 0 * x, z, z, lambda p, x: 1 + 0 * p + 0 * x, z, z),
        TestFunction(
            "x^2", lambda p, x: x**2 + 0 * p, lambda p, x: 2 * x + 0 * p,
            lambda p, x: 2 + 0 * p + 0 * x, z, z, z,
        ),
        TestFunction(
            "pi^2", lambda p, x: p**2 + 0 * x, z, z,
            lambda p, x: 2 * p + 0 * x, lambda p, x: 2 + 0 * p + 0 * x, z,
        ),
        TestFunction(
            "pi*x", lambda p, x: p * x, lambda p, x: p + 0 * x, z,
            lambda p, x: x + 0 * p, z, lambda p, x: 1 + 0 * p + 0 * x,
        ),
        TestFunction(
            "tanh(x)*pi",
            lambda p, x: np.tanh(x) * p,
            lambda p, x: (1 - np.tanh(x) ** 2) * p,
            lambda p, x: -2 * np.tanh(x) * (1 - np.tanh(x) ** 2) * p,
            lambda p, x: np.tanh(x) + 0 * p,
            z,
            lambda p, x: 1 - np.tanh(x) ** 2 + 0 * p,
        ),
    ]


def analytic_generator(
    model: DiffusionModel, phi: TestFunction, pi: float, x: float, mode: str
) -> float:
    """Evaluate the generator of the requested mode at an interior point."""
    b_x, b_pi, a_x, a_pi, c = generator_coefficients(model, pi, x, mode)
    return float(
        b_x * phi.dx(pi, x) + a_x * phi.dxx(pi, x) + b_pi * phi.dpi(pi, x)
        + a_pi * phi.dpipi(pi, x) + c * phi.dxpi(pi, x)
    )


def mc_generator_drift(
    model: DiffusionModel,
    phi: TestFunction,
    pi: float,
    x: float,
    mode: str,
    n: int,
    dt: float,
    device: RandomDevice,
) -> tuple[float, float]:
    """One-step Monte Carlo drift (E[phi(X_dt, psi_dt)] - phi) / dt and stderr.

    The regime modes simulate X with the true drift and feed the observed
    increment through the filter update, exactly as the simulators do.
    """
    rng = device.generator()
    dw = rng.standard_normal(n) * np.sqrt(dt)
    s = float(np.asarray(model.sigma(x)))
    x1 = x + float(generator_coefficients(model, pi, x, mode)[0]) * dt + s * dw
    if mode == "observation":
        db = dw
    else:
        db = (x1 - x - float(model.mu_bar(x, pi)) * dt) / s
    psi1 = np.clip(filter_step(model, x, pi, db), 0.0, 1.0)
    vals = (np.asarray(phi.value(psi1, x1), dtype=float) - float(phi.value(pi, x))) / dt
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))


def generator_check(
    model: DiffusionModel,
    phi: TestFunction,
    pi: float,
    x: float,
    mode: str,
    n: int,
    dt: float,
    device: RandomDevice,
) -> dict:
    """Compare the MC drift against the analytic generator at one point."""
    mc, se = mc_generator_drift(model, phi, pi, x, mode, n, dt, device)
    exact = analytic_generator(model, phi, pi, x, mode)
    return {
        "phi": phi.name,
        "mode": mode,
        "point": (pi, x),
        "mc_drift": mc,
        "analytic": exact,
        "stderr": se,
        "discrepancy": mc - exact,
        "within_4se": bool(abs(mc - exact) <= 4.0 * se + 1e-12),
    }
