"""Diffusion-with-hidden-drift models and their JSON expression grammar.

This module is the one home of the diffusion math that the simulators, the
PDE and the generator checks share: ``generator_coefficients`` gives the
coefficients of the (X, psi) generator in each mode of ``MODES``, and
``filter_step`` is the Euler update psi + w(X) psi (1 - psi) dB of the
filter SDE.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["DiffusionModel", "MODES", "parse_expression", "model_from_dict",
           "generator_coefficients", "filter_step"]

MODES = ("observation", "regime-0", "regime-1")
# sigma must stay at or above this floor on the domain: w divides by it
_SIGMA_MIN = 1e-6

_TOKEN = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?)|(x)|(tanh)|([()+\-*]))")


def parse_expression(src: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a tiny arithmetic grammar into a vectorized callable.

    Grammar: numbers, the state symbol ``x``, ``+``, ``-``, ``*``, ``tanh(...)``
    and parentheses -- enough for constants and affine/tanh drifts without
    ever touching ``eval``.
    """
    tokens: list[str] = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            raise ValueError(f"bad token in expression at {src[pos:]!r}")
        tokens.append(m.group(m.lastindex))
        pos = m.end()
    tokens.append("<end>")
    idx = 0

    def peek() -> str:
        return tokens[idx]

    def take(expected: str | None = None) -> str:
        nonlocal idx
        tok = tokens[idx]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        idx += 1
        return tok

    def expr():
        node = term()
        while peek() in "+-":
            op = take()
            rhs = term()
            node = (lambda a, b: (lambda x: a(x) + b(x))) (node, rhs) if op == "+" else (
                lambda a, b: (lambda x: a(x) - b(x))
            )(node, rhs)
        return node

    def term():
        node = factor()
        while peek() == "*":
            take()
            rhs = factor()
            node = (lambda a, b: (lambda x: a(x) * b(x)))(node, rhs)
        return node

    def factor():
        tok = peek()
        if tok == "-":
            take()
            inner = factor()
            return lambda x: -inner(x)
        if tok == "(":
            take()
            inner = expr()
            take(")")
            return inner
        if tok == "tanh":
            take()
            take("(")
            inner = expr()
            take(")")
            return lambda x: np.tanh(inner(x))
        if tok == "x":
            take()
            return lambda x: np.asarray(x, dtype=float)
        take()
        val = float(tok)
        return lambda x: np.full_like(np.asarray(x, dtype=float), val)

    out = expr()
    take("<end>")
    return out


@dataclass(frozen=True)
class DiffusionModel:
    """State diffusion dX = mu_J(X) dt + sigma(X) dW with hidden J in {0,1}.

    ``w = (mu1 - mu0) / sigma`` is the signal-to-noise ratio governing how
    fast observing X reveals the drift regime.
    """

    mu0: Callable[[np.ndarray], np.ndarray]
    mu1: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    x0: float
    prior: float
    horizon: float
    domain: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.domain
        if not np.all(np.isfinite([self.x0, self.horizon, lo, hi])):
            raise ValueError("x0, T and the domain ends must be finite")
        if not lo < hi:
            raise ValueError("empty domain")
        if not lo <= self.x0 <= hi:
            raise ValueError(f"x0 {self.x0!r} lies outside the domain [{lo!r}, {hi!r}]")
        if not 0.0 <= self.prior <= 1.0:
            raise ValueError("prior must lie in [0, 1]")
        # validate the coefficients by finite sampling on the domain
        xs = self.sample_points()
        with np.errstate(all="ignore"):  # inf - inf reads as non-finite, not as a warning
            coefficients = {name: np.asarray(getattr(self, name)(xs), dtype=float)
                            for name in ("mu0", "mu1", "sigma")}
        for name, values in coefficients.items():
            if not np.isfinite(values).all():
                raise ValueError(f"{name} is not finite on the domain")
        if np.any(coefficients["sigma"] < _SIGMA_MIN):
            raise ValueError(f"sigma drops below {_SIGMA_MIN} on the domain")
        # the filter steps with w, the PDE with sigma**2 and w**2: an overflow is an input error
        with np.errstate(all="ignore"):
            sigma, w = coefficients["sigma"], self.w(xs)
            if not np.isfinite(sigma * sigma).all():
                raise ValueError("sigma**2 is not finite on the domain")
            if not np.isfinite(w * w).all():
                raise ValueError("w = (mu1 - mu0) / sigma or its square is not finite on the domain")

    def sample_points(self) -> np.ndarray:
        """The 257 points across the domain at which coefficients and payoffs are checked."""
        return np.linspace(*self.domain, 257)

    def w(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (np.asarray(self.mu1(x)) - np.asarray(self.mu0(x))) / np.asarray(self.sigma(x))

    def mu_bar(self, x, psi) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.asarray(self.mu0(x)) * (1.0 - psi) + np.asarray(self.mu1(x)) * psi


def generator_coefficients(model: DiffusionModel, pi, x, mode: str) -> tuple:
    """(b_x, b_pi, a_x, a_pi, c) of L phi = b_x phi_x + b_pi phi_pi + a_x phi_xx
    + a_pi phi_pipi + c phi_xpi in one mode of ``MODES``, broadcast over pi, x.

    Under the observation measure X drifts with mu_bar and psi has no drift;
    conditioning on a regime tilts the innovation by +w (1-pi) (regime 1) or
    -w pi (regime 0).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    pi = np.asarray(pi, dtype=float)
    x = np.asarray(x, dtype=float)
    shape = np.broadcast_shapes(pi.shape, x.shape)
    sig = np.asarray(model.sigma(x), dtype=float)
    w = np.asarray(model.w(x), dtype=float)
    if mode == "observation":
        drift_x = model.mu_bar(x, pi)
        drift_pi = np.zeros(shape)
    elif mode == "regime-1":
        drift_x = np.broadcast_to(np.asarray(model.mu1(x), dtype=float), shape)
        drift_pi = w**2 * pi * (1.0 - pi) ** 2
    else:
        drift_x = np.broadcast_to(np.asarray(model.mu0(x), dtype=float), shape)
        drift_pi = -(w**2) * pi**2 * (1.0 - pi)
    half_var_pi = 0.5 * w**2 * pi**2 * (1.0 - pi) ** 2
    return drift_x, drift_pi, 0.5 * sig**2, half_var_pi, sig * w * pi * (1.0 - pi)


def filter_step(model: DiffusionModel, x, psi, db):
    """Unclamped Euler step psi + w(x) psi (1 - psi) dB of the filter SDE."""
    return psi + model.w(x) * psi * (1.0 - psi) * db


def model_from_dict(data: dict) -> DiffusionModel:
    """Build a model from the JSON schema {mu0, mu1, sigma, x0, pi, T, domain}."""
    lo, hi = data["domain"]
    return DiffusionModel(
        mu0=parse_expression(data["mu0"]),
        mu1=parse_expression(data["mu1"]),
        sigma=parse_expression(data["sigma"]),
        x0=float(data["x0"]),
        prior=float(data["pi"]),
        horizon=float(data["T"]),
        domain=(float(lo), float(hi)),
    )
