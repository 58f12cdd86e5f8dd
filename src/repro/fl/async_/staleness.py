"""Staleness-decay weightings for asynchronous aggregation.

An update's *staleness* ``s`` is the number of aggregations the global
model went through between the job's dispatch and its arrival: a fast
device usually arrives at ``s = 0``, a straggler may arrive many versions
late.  Each policy maps ``s`` to a multiplicative impact-factor decay in
``(0, 1]``; the aggregation pipeline
(:func:`repro.fl.pipeline.aggregate_window`) composes it with the
strategy's own impact factors and renormalizes.

The shapes follow the async-FL literature (FedAsync's constant /
polynomial / hinge family, reused by FedBuff): ``constant`` ignores
staleness, ``polynomial`` decays smoothly as ``(1 + s)^-a``, and
``hinge`` tolerates staleness up to ``b`` versions before decaying
hyperbolically.
"""

from __future__ import annotations

STALENESS_POLICIES = ("constant", "polynomial", "hinge")


class StalenessWeighting:
    """Maps an update's staleness (in model versions) to a weight decay."""

    name: str = "base"

    def factor(self, staleness: int) -> float:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ConstantStaleness(StalenessWeighting):
    """No decay — stale updates count like fresh ones (pure FedBuff)."""

    name = "constant"

    def factor(self, staleness: int) -> float:
        if staleness < 0:
            raise ValueError("staleness cannot be negative")
        return 1.0


class PolynomialStaleness(StalenessWeighting):
    """``(1 + s)^-exponent`` — FedAsync's polynomial family."""

    name = "polynomial"

    def __init__(self, exponent: float = 0.5) -> None:
        if exponent <= 0:
            raise ValueError("exponent must be positive")
        self.exponent = exponent

    def factor(self, staleness: int) -> float:
        if staleness < 0:
            raise ValueError("staleness cannot be negative")
        return float((1.0 + staleness) ** -self.exponent)


class HingeStaleness(StalenessWeighting):
    """Full weight up to ``b`` versions late, then ``1 / (1 + a·(s - b))``."""

    name = "hinge"

    def __init__(self, a: float = 1.0, b: int = 4) -> None:
        if a <= 0:
            raise ValueError("a must be positive")
        if b < 0:
            raise ValueError("b must be non-negative")
        self.a = a
        self.b = b

    def factor(self, staleness: int) -> float:
        if staleness < 0:
            raise ValueError("staleness cannot be negative")
        if staleness <= self.b:
            return 1.0
        return float(1.0 / (1.0 + self.a * (staleness - self.b)))


def get_staleness_weighting(name: str, **kwargs) -> StalenessWeighting:
    """Staleness policy by CLI name."""
    policies = {
        "constant": ConstantStaleness,
        "polynomial": PolynomialStaleness,
        "hinge": HingeStaleness,
    }
    if name not in policies:
        raise ValueError(
            f"staleness policy must be one of {STALENESS_POLICIES}, got {name!r}"
        )
    return policies[name](**kwargs)
