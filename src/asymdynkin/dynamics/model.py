"""Diffusion-with-hidden-drift models and their JSON expression grammar.

This module is the one home of the diffusion math that the simulators and
the PDE share: ``DiffusionModel.coefficients`` evaluates the drifts, on the
type axis, and sigma once, ``signal`` is w = (mu1 - mu0) / sigma of them,
``generator_coefficients`` gives the (X, psi) generator in each mode of
``MODES``, and ``filter_step`` is the Euler update of the filter SDE.

Coefficients and payoffs are expressions in ``x`` whose grammar is Python's,
restricted twice.  A token check admits only decimal numbers, ``x``, ``tanh``,
parentheses, ``+``, ``-``, ``*`` and whitespace; of the tree ``ast.parse``
then builds, a whitelist -- ``+``, ``-`` and ``*``, unary minus, ``tanh`` of
one argument, ``x`` and number constants -- compiles into numpy closures, and
any other node is a ValueError.  Python evaluates nothing.
"""

from __future__ import annotations

import ast
import re
import reprlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core import _belief_weights, _type_mix, json_numbers

__all__ = ["DiffusionModel", "MODES", "parse_expression", "expression_field", "model_from_dict",
           "generator_coefficients", "filter_step", "signal"]

MODES = ("observation", "regime-0", "regime-1")
# sigma must stay at or above this floor on the domain: w divides by it
_SIGMA_MIN = 1e-6

# the tokens, read left to right without backtracking (a possessive loop), and whitespace
_TOKENS = re.compile(r"(?:\s|\d+\.?\d*(?:[eE][+-]?\d+)?|x|tanh|[()+\-*])*+")
_BINARY = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply}


def parse_expression(src: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression of the module's grammar into a vectorized callable of ``x``."""
    if not _TOKENS.fullmatch(src):
        raise ValueError(f"bad token in expression {reprlib.repr(src)}")
    text = " ".join(src.split())
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, MemoryError) as exc:  # MemoryError: CPython's parser stack is full
        raise ValueError(f"bad expression {reprlib.repr(src)}: "
                         f"{getattr(exc, 'msg', 'nested too deep')}") from None

    def build(node):
        match node:
            case ast.BinOp(left, op, right) if type(op) in _BINARY:
                fn, a, b = _BINARY[type(op)], build(left), build(right)
                return lambda x: fn(a(x), b(x))
            case ast.UnaryOp(ast.USub(), operand):
                inner = build(operand)
                return lambda x: -inner(x)
            case ast.Call(ast.Name("tanh"), [arg], []):
                inner = build(arg)
                return lambda x: np.tanh(inner(x))
            case ast.Name("x"):
                return lambda x: np.asarray(x, dtype=float)
            case ast.Constant():  # its text, not its value: 0x10 is a Python int but no float
                val = float(ast.get_source_segment(text, node))
                return lambda x: np.full_like(np.asarray(x, dtype=float), val)
        raise ValueError(f"{reprlib.repr(ast.get_source_segment(text, node))} is outside the grammar")

    return build(tree.body)


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
        if self.horizon <= 0.0:
            raise ValueError(f"T {self.horizon!r} must be positive")
        if not lo < hi:
            raise ValueError("empty domain")
        if not lo <= self.x0 <= hi:
            raise ValueError(f"x0 {self.x0!r} lies outside the domain [{lo!r}, {hi!r}]")
        if not 0.0 <= self.prior <= 1.0:
            raise ValueError("prior must lie in [0, 1]")
        # validate the coefficients by finite sampling on the domain
        with np.errstate(all="ignore"):  # inf - inf reads as non-finite, not as a warning
            mu, sigma = self.coefficients(self.sample_points())
        for name, values in (("mu0", mu[0]), ("mu1", mu[1]), ("sigma", sigma)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} is not finite on the domain")
        if np.any(sigma < _SIGMA_MIN):
            raise ValueError(f"sigma drops below {_SIGMA_MIN} on the domain")
        # the filter steps with w, the PDE with sigma**2 and w**2: an overflow is an input error
        with np.errstate(all="ignore"):
            w = signal(mu, sigma)
            if not np.isfinite(sigma * sigma).all():
                raise ValueError("sigma**2 is not finite on the domain")
            if not np.isfinite(w * w).all():
                raise ValueError("w = (mu1 - mu0) / sigma or its square is not finite on the domain")

    def sample_points(self) -> np.ndarray:
        """The 257 points across the domain at which coefficients and payoffs are checked."""
        return np.linspace(*self.domain, 257)

    def coefficients(self, x) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
        """((mu0, mu1), sigma) at ``x``, the drifts on the type axis, each callable evaluated once."""
        x = np.asarray(x, dtype=float)
        mu0, mu1, sigma = (np.asarray(c(x), dtype=float) for c in (self.mu0, self.mu1, self.sigma))
        return (mu0, mu1), sigma

    def w(self, x) -> np.ndarray:
        return signal(*self.coefficients(x))

    def mu_bar(self, x, psi) -> np.ndarray:
        return _type_mix(_belief_weights(psi), self.coefficients(x)[0])


def signal(mu, sigma):
    """The signal-to-noise ratio w = (mu1 - mu0) / sigma of drifts ``mu`` on the type axis."""
    return (mu[1] - mu[0]) / sigma


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
    mu, sig = model.coefficients(x)
    w = signal(mu, sig)
    if mode == "observation":
        drift_x = _type_mix(_belief_weights(pi), mu)
        drift_pi = np.zeros(shape)
    elif mode == "regime-1":
        drift_x = np.broadcast_to(mu[1], shape)
        drift_pi = w**2 * pi * (1.0 - pi) ** 2
    else:
        drift_x = np.broadcast_to(mu[0], shape)
        drift_pi = -(w**2) * pi**2 * (1.0 - pi)
    half_var_pi = 0.5 * w**2 * pi**2 * (1.0 - pi) ** 2
    return drift_x, drift_pi, 0.5 * sig**2, half_var_pi, sig * w * pi * (1.0 - pi)


def filter_step(w, psi, db):
    """Unclamped Euler step psi + w psi (1 - psi) dB of the filter SDE, with w = w(X) the
    signal-to-noise ratio at the step's start."""
    return psi + w * psi * (1.0 - psi) * db


def expression_field(data: dict, key: str) -> Callable[[np.ndarray], np.ndarray]:
    """``parse_expression`` of ``data[key]``, which must be a string; an error names ``key``."""
    if not isinstance(data[key], str):
        raise ValueError(f"{key}: need an expression string, got {type(data[key]).__name__}")
    try:
        return parse_expression(data[key])
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep for ast
        raise ValueError(f"{key}: {exc}") from None


def model_from_dict(data: dict) -> DiffusionModel:
    """Build a model from the JSON schema {mu0, mu1, sigma, x0, pi, T, domain}."""
    mu0, mu1, sigma = (expression_field(data, key) for key in ("mu0", "mu1", "sigma"))
    x0, prior, horizon = (float(json_numbers(key, data[key], shape=())) for key in ("x0", "pi", "T"))
    domain = tuple(json_numbers("domain", data["domain"], shape=(2,)).tolist())
    return DiffusionModel(mu0, mu1, sigma, x0, prior, horizon, domain)
