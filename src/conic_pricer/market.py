"""Market data model and trading-strategy accounting.

A market consists of a savings account driven by a nonnegative adapted rate
process and a list of securities, each quoted with separate bid and ask
ex-dividend prices and separate cumulative bid/ask dividend streams.  The
standing consistency requirement is ``ask >= bid`` for prices and
``delta(div_ask) <= delta(div_bid)`` for dividend increments: a long position
buys at the ask, is credited the ask dividend stream and liquidates at the
bid, and symmetrically for shorts.

Wealth bookkeeping:

* ``wealth_process`` values a predictable strategy date by date - the setup
  cost at date 0 (purchases at ask, sales at bid), then the pre-rebalance
  liquidation value plus the dividend credit at every later date.
* ``is_self_financing`` checks the rebalance identity at every intermediate
  date: the bank-account change plus the signed cost of the position change
  must equal the dividends received.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .lattice import EventTree, as_values, ensure_adapted

__all__ = [
    "Security",
    "MarketModel",
    "CashFlow",
    "TradingStrategy",
    "SelfFinancingCheck",
    "discount_factors",
    "apply_transaction_costs",
    "wealth_process",
    "is_self_financing",
    "make_self_financing",
    "asian_call",
    "cds_dividends",
]


@dataclass(frozen=True)
class Security:
    """Bid/ask ex-dividend prices plus cumulative bid/ask dividends."""

    name: str
    bid: np.ndarray
    ask: np.ndarray
    div_ask: np.ndarray
    div_bid: np.ndarray

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.ask + self.bid)


@dataclass(frozen=True)
class CashFlow:
    """Adapted per-date payments; column t is the payment at date t."""

    values: np.ndarray

    @classmethod
    def ingest(cls, tree: EventTree, values) -> "CashFlow":
        return cls(ensure_adapted(tree, values, name="cash flow"))


def apply_transaction_costs(
    bid, lam: float, *, name: str = "security", tree: Optional[EventTree] = None
) -> Security:
    """Build a security from bid prices and a proportional cost coefficient.

    ask = bid * (1 + lam); the mid price is then bid * (1 + lam / 2).
    Dividends are zero; use :func:`dataclasses.replace` to attach streams.
    """
    if lam < 0:
        raise ValidationError(f"transaction cost coefficient must be >= 0, got {lam}")
    bid_arr = np.asarray(as_values(bid), dtype=float)
    if tree is not None:
        bid_arr = ensure_adapted(tree, bid_arr, name=f"{name} bid")
    zeros = np.zeros_like(bid_arr)
    return Security(
        name=name,
        bid=bid_arr,
        ask=bid_arr * (1.0 + lam),
        div_ask=zeros,
        div_bid=zeros.copy(),
    )


class MarketModel:
    """Validated market: tree, rate process, securities."""

    def __init__(self, tree: EventTree, rates, securities: Sequence[Security]):
        self.tree = tree
        n, T = tree.n_paths, tree.horizon
        r = np.asarray(rates, dtype=float)
        if r.ndim == 0:
            r = np.full((n, T), float(r))
        elif r.ndim == 1:
            if r.shape[0] != T:
                raise ValidationError(f"rate vector must have {T} entries")
            r = np.tile(r, (n, 1))
        if r.shape != (n, T):
            raise ValidationError(f"rates must have shape {(n, T)}, got {r.shape}")
        if np.any(r < 0):
            raise ValidationError("rates must be nonnegative")
        bad = tree.unmeasurable_cell(r)
        if bad is not None:
            raise ValidationError(f"rates not adapted at t={bad[0]}, cell {bad[1]}")
        self.rates = r

        if not securities:
            raise ValidationError("a market needs at least one security")
        self.securities = tuple(securities)
        for sec in self.securities:
            for label, arr in (
                ("bid prices", sec.bid),
                ("ask prices", sec.ask),
                ("cumulative ask dividends", sec.div_ask),
                ("cumulative bid dividends", sec.div_bid),
            ):
                ensure_adapted(tree, arr, name=f"{sec.name} {label}")
            if np.any(sec.div_ask[:, 0] != 0) or np.any(sec.div_bid[:, 0] != 0):
                raise ValidationError(
                    f"{sec.name}: cumulative dividends must start at 0"
                )
            gap = sec.ask - sec.bid
            if np.any(gap < 0):
                i, t = np.argwhere(gap < 0)[0]
                raise ValidationError(
                    f"Assumption A violated at path {tree.paths[i]}, t={t}: "
                    f"ask {sec.ask[i, t]} < bid {sec.bid[i, t]} for {sec.name}"
                )
            d_gap = np.diff(sec.div_bid, axis=1) - np.diff(sec.div_ask, axis=1)
            if np.any(d_gap < -1e-15):
                i, t = np.argwhere(d_gap < -1e-15)[0]
                raise ValidationError(
                    f"Assumption A violated at path {tree.paths[i]}, t={t + 1}: "
                    f"ask dividend increment exceeds bid increment for {sec.name}"
                )
        self._discounts = discount_factors(self)

    @property
    def n_securities(self) -> int:
        return len(self.securities)

    @property
    def probabilities(self) -> np.ndarray:
        return self.tree.probabilities

    def discounts(self) -> tuple[np.ndarray, np.ndarray]:
        """(B, 1/B) under the unit-initial convention B_0 = 1."""
        return self._discounts


def discount_factors(model: MarketModel):
    """Savings account B and its reciprocal.

    B_0 = 1 and B_t = prod_{s<t} (1 + r_s), so the rate fixed at date s
    accrues over (s, s+1].  The unit initial value makes the date-0 setup cost
    and the explicit wealth sum consistent.
    """
    n, T = model.tree.n_paths, model.tree.horizon
    B = np.ones((n, T + 1))
    for t in range(1, T + 1):
        B[:, t] = B[:, t - 1] * (1.0 + model.rates[:, t - 1])
    return B, 1.0 / B


@dataclass(frozen=True)
class TradingStrategy:
    """Predictable holdings; ``holdings[t, 0]`` is the savings-account slot,
    ``holdings[t, 1 + j]`` the units of security j held over (t-1, t]."""

    holdings: np.ndarray  # (T+1, n_securities+1, n_paths)

    def validate(self, tree: EventTree) -> "TradingStrategy":
        h = self.holdings
        if h.ndim != 3 or h.shape[0] != tree.horizon + 1 or h.shape[2] != tree.n_paths:
            raise ValidationError(
                f"holdings must have shape (horizon+1, slots, n_paths), got {h.shape}"
            )
        if np.any(h[0] != 0):
            raise ValidationError("holdings at t=0 must be zero by convention")
        for t in range(1, tree.horizon + 1):
            for cell in tree.partitions[t - 1]:
                block = h[t][:, list(cell)]
                if np.max(block, axis=1).tolist() != np.min(block, axis=1).tolist():
                    raise ValidationError(
                        f"holdings at t={t} are not predictable on cell {cell}"
                    )
        return self

    @classmethod
    def zero(cls, tree: EventTree, n_securities: int) -> "TradingStrategy":
        return cls(np.zeros((tree.horizon + 1, n_securities + 1, tree.n_paths)))


def _split(values: np.ndarray, pos_price: np.ndarray, neg_price: np.ndarray):
    """values >= 0 priced with pos_price, values < 0 with neg_price."""
    return np.where(values >= 0, values * pos_price, values * neg_price)


def wealth_process(model: MarketModel, phi: TradingStrategy) -> np.ndarray:
    """Date-by-date wealth of a predictable strategy (undiscounted)."""
    tree = model.tree
    phi.validate(tree)
    h = phi.holdings
    n, T = tree.n_paths, tree.horizon
    B, _ = model.discounts()
    V = np.zeros((n, T + 1))
    setup = h[1][0].copy()
    for j, sec in enumerate(model.securities):
        setup += _split(h[1][1 + j], sec.ask[:, 0], sec.bid[:, 0])
    V[:, 0] = setup
    for t in range(1, T + 1):
        v = h[t][0] * B[:, t]
        for j, sec in enumerate(model.securities):
            d_ask = sec.div_ask[:, t] - sec.div_ask[:, t - 1]
            d_bid = sec.div_bid[:, t] - sec.div_bid[:, t - 1]
            v += _split(h[t][1 + j], sec.bid[:, t] + d_ask, sec.ask[:, t] + d_bid)
        V[:, t] = v
    return V


@dataclass(frozen=True)
class SelfFinancingCheck:
    ok: bool
    time: Optional[int] = None
    path: Optional[int] = None
    residual: float = 0.0

    def __bool__(self):
        return self.ok


def is_self_financing(
    model: MarketModel, phi: TradingStrategy, *, tol: float = 1e-9
) -> SelfFinancingCheck:
    """Check the rebalance identity at every date 1..horizon-1.

    The first violating (date, path) and its residual are reported.
    """
    tree = model.tree
    phi.validate(tree)
    h = phi.holdings
    B, _ = model.discounts()
    for t in range(1, tree.horizon):
        lhs = B[:, t] * (h[t + 1][0] - h[t][0])
        rhs = np.zeros(tree.n_paths)
        for j, sec in enumerate(model.securities):
            d = h[t + 1][1 + j] - h[t][1 + j]
            lhs += _split(d, sec.ask[:, t], sec.bid[:, t])
            d_ask = sec.div_ask[:, t] - sec.div_ask[:, t - 1]
            d_bid = sec.div_bid[:, t] - sec.div_bid[:, t - 1]
            rhs += _split(h[t][1 + j], d_ask, d_bid)
        resid = lhs - rhs
        bad = np.abs(resid) > tol
        if np.any(bad):
            i = int(np.argmax(np.abs(resid)))
            return SelfFinancingCheck(False, time=t, path=i, residual=float(resid[i]))
    return SelfFinancingCheck(True)


def make_self_financing(
    model: MarketModel,
    legs: np.ndarray,
    *,
    bank0: Optional[float] = None,
) -> TradingStrategy:
    """Complete predictable security legs to a self-financing strategy.

    ``legs`` has shape (horizon+1, n_securities, n_paths) with ``legs[0] = 0``.
    The savings-account slot absorbs every purchase, sale and dividend, making
    the rebalance identity exact at every date by construction.  ``bank0``
    sets the initial savings position; by default it is chosen so that the
    date-0 setup cost is zero.
    """
    tree = model.tree
    n, T, S = tree.n_paths, tree.horizon, model.n_securities
    legs = np.asarray(legs, dtype=float)
    if legs.shape != (T + 1, S, n):
        raise ValidationError(f"legs must have shape {(T + 1, S, n)}, got {legs.shape}")
    B, _ = model.discounts()
    h = np.zeros((T + 1, S + 1, n))
    h[:, 1:, :] = legs
    cost0 = np.zeros(n)
    for j, sec in enumerate(model.securities):
        cost0 += _split(legs[1, j], sec.ask[:, 0], sec.bid[:, 0])
    h[1, 0] = (-cost0) if bank0 is None else bank0
    for t in range(1, T):
        receipts = np.zeros(n)
        rebal = np.zeros(n)
        for j, sec in enumerate(model.securities):
            d_ask = sec.div_ask[:, t] - sec.div_ask[:, t - 1]
            d_bid = sec.div_bid[:, t] - sec.div_bid[:, t - 1]
            receipts += _split(legs[t, j], d_ask, d_bid)
            d = legs[t + 1, j] - legs[t, j]
            rebal += _split(d, sec.ask[:, t], sec.bid[:, t])
        h[t + 1, 0] = h[t, 0] + (receipts - rebal) / B[:, t]
    return TradingStrategy(h).validate(tree)


def asian_call(
    model: MarketModel,
    security,
    strike: float,
    averaging: str = "mid",
) -> CashFlow:
    """Arithmetic-average call paying ((sum_t P_t)/(horizon+1) - strike)+ at
    the final date, with P the bid, ask or mid price of the chosen security."""
    sec = _resolve_security(model, security)
    if averaging == "bid":
        prices = sec.bid
    elif averaging == "ask":
        prices = sec.ask
    elif averaging == "mid":
        prices = sec.mid
    else:
        raise ValidationError(f"averaging must be bid|ask|mid, got {averaging!r}")
    n, T = model.tree.n_paths, model.tree.horizon
    payoff = np.maximum(prices.mean(axis=1) - float(strike), 0.0)
    D = np.zeros((n, T + 1))
    D[:, T] = payoff
    return CashFlow(D)


def _resolve_security(model: MarketModel, security) -> Security:
    if isinstance(security, Security):
        return security
    if isinstance(security, int):
        return model.securities[security]
    for sec in model.securities:
        if sec.name == security:
            return sec
    raise ValidationError(f"unknown security {security!r}")


def cds_dividends(
    tree: EventTree,
    tau: Sequence[Optional[int]],
    delta: float,
    kappa_ask: float,
    kappa_bid: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative protection-buyer dividend streams of a credit default swap.

    ``tau`` gives the per-path default date (None = no default by the
    horizon) and must be a stopping time: whether default has happened by
    date t can only depend on date-t information.  The buyer receives the
    loss-given-default ``delta`` at default and pays the running spread
    (``kappa_ask`` on the ask stream, ``kappa_bid`` on the bid stream) at
    every date strictly before default.
    """
    if delta < 0:
        raise ValidationError("loss-given-default must be >= 0")
    n, T = tree.n_paths, tree.horizon
    if len(tau) != n:
        raise ValidationError("tau must have one entry per path")
    tau_eff = []
    for i, v in enumerate(tau):
        if v is None:
            tau_eff.append(T + 1_000_000)
        else:
            v = int(v)
            if not 1 <= v <= T:
                raise ValidationError(
                    f"default time on path {tree.paths[i]} must lie in 1..{T} or be null"
                )
            tau_eff.append(v)
    for t in range(T + 1):
        for cell in tree.partitions[t]:
            flags = {tau_eff[i] <= t for i in cell}
            if len(flags) > 1:
                raise ValidationError(
                    f"tau is not a stopping time: default-by-{t} differs inside cell {cell}"
                )

    def build(kappa: float) -> np.ndarray:
        A = np.zeros((n, T + 1))
        for i in range(n):
            fees = 0
            for t in range(1, T + 1):
                if t < tau_eff[i]:
                    fees += 1
                A[i, t] = (delta if tau_eff[i] <= t else 0.0) - kappa * fees
        return A

    return build(kappa_ask), build(kappa_bid)
