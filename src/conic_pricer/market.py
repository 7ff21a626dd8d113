"""Market data model, self-financing strategies and contract builders.

A market consists of a savings account driven by a finite nonnegative
adapted rate process and a list of securities, each quoted with separate bid
and ask ex-dividend prices and separate cumulative bid/ask dividend streams.
The standing consistency requirement is ``ask >= bid`` for prices and
``delta(div_ask) <= delta(div_bid)`` for dividend increments: a long position
buys at the ask, is credited the ask dividend stream and liquidates at the
bid, and symmetrically for shorts.

:class:`MarketModel` checks every security's four processes and the rates
in one stacked validation pass (:func:`conic_pricer.lattice.adapted_stack`):
one array of all of them, one comparison of each value with its cell
head's and one finiteness test, so finiteness and adaptedness are decided
for every process at once.  Only when the pass fails does it name the
first failing process, in the loader's order (each security's bid, ask,
ask and bid dividends, then the rates), in the message a one-process check
gives.  The dividends' start and Assumption A are then checked on the
same stack, every security at once, first failing security named.

A predictable strategy holds security legs and a savings-account slot;
``make_self_financing`` completes security legs with the savings position
that absorbs every purchase, sale and dividend, so the strategy is
self-financing by construction.  Every witness's hedge is built this way
(:func:`conic_pricer.cone.hedge_strategy`).

Adapted prices, predictable holdings and a CDS default time that is a
stopping time are one measurability rule of the tree,
:meth:`~conic_pricer.lattice.EventTree.unmeasurable_cell`: holdings over
(t-1, t] are a process at date t-1, and the default indicator 1{tau <= t} a
process at date t.  Each failure names the rule's two paths of one node
with their values (``holdings at t=2 are not predictable: 1.0 on path w1,
0.0 on path w2``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .lattice import (
    EventTree,
    adapted_stack,
    as_values,
    check_shapes,
    ensure_adapted,
    finite,
    integer,
    two_paths,
    unadapted_error,
)

__all__ = [
    "Security",
    "MarketModel",
    "CashFlow",
    "TradingStrategy",
    "discount_factors",
    "apply_transaction_costs",
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

    def processes(self):
        """(name, matrix) of each of its four price processes."""
        return (
            (f"{self.name} bid prices", self.bid),
            (f"{self.name} ask prices", self.ask),
            (f"{self.name} cumulative ask dividends", self.div_ask),
            (f"{self.name} cumulative bid dividends", self.div_bid),
        )


@dataclass(frozen=True)
class CashFlow:
    """Adapted per-date payments; column t is the payment at date t."""

    values: np.ndarray

    @classmethod
    def ingest(cls, tree: EventTree, values) -> "CashFlow":
        return cls(ensure_adapted(tree, values, name="cash flow"))


def apply_transaction_costs(bid, lam: float, *, name: str = "security") -> Security:
    """Build a security from bid prices and a proportional cost coefficient.

    ask = bid * (1 + lam); the mid price is then bid * (1 + lam / 2).
    Dividends are zero; use :func:`dataclasses.replace` to attach streams.
    The market built on the security checks its processes.
    """
    if isinstance(lam, bool) or not isinstance(lam, (int, float, np.number)):
        raise ValidationError(f"transaction cost coefficient must be a number, got {lam!r}")
    if not (np.isfinite(lam) and lam >= 0):  # NaN fails too
        raise ValidationError(f"transaction cost coefficient must be finite and >= 0, got {lam}")
    bid_arr = as_values(bid)
    zeros = np.zeros_like(bid_arr)
    return Security(
        name=name,
        bid=bid_arr,
        ask=bid_arr * (1.0 + lam),
        div_ask=zeros,
        div_bid=zeros.copy(),
    )


def _rate_matrix(rates, n: int, T: int) -> np.ndarray:
    """``rates`` as an (n paths, T dates) matrix of finite nonnegative
    rates: a scalar is every path's rate at every date, a T-vector every
    path's schedule.  Bools and strings are not rates."""
    r = np.asarray(rates)
    if r.dtype.kind not in "iuf":
        raise ValidationError(f"rates must be numbers, got {rates!r}")
    r = np.asarray(r, dtype=float)
    if r.ndim == 0:
        r = np.full((n, T), float(r))
    elif r.ndim == 1:
        check_shapes([("rates", r)], (T,))
        r = r[None].repeat(n, axis=0)
    check_shapes([("rates", r)], (n, T))
    if not (np.isfinite(r) & (r >= 0)).all():
        raise ValidationError("rates must be finite and nonnegative")
    return r


class MarketModel:
    """Validated market: tree, rate process, securities."""

    def __init__(self, tree: EventTree, rates, securities: Sequence[Security]):
        self.tree = tree
        r = _rate_matrix(rates, tree.n_paths, tree.horizon)
        self.rates = r
        if not securities:
            raise ValidationError("a market needs at least one security")
        self.securities = tuple(securities)
        names = [sec.name for sec in self.securities]
        for name in names:
            if names.count(name) > 1:
                raise ValidationError(f"security name {name!r} is used twice")
        # one stacked pass over every price process and the rates (padded to
        # the horizon with their last column, adapted where the rates are)
        processes = [p for sec in self.securities for p in sec.processes()]
        processes.append(("rates", np.concatenate((r, r[:, -1:]), axis=1)))
        stack, bad = adapted_stack(tree, processes)
        if bad is not None:
            k, at = bad
            raise unadapted_error(tree, processes[k][0], stack[k], at)
        # (security, process, path, date): bid, ask, then the cumulative ask
        # and bid dividends
        quotes = stack[:-1].reshape(len(names), 4, tree.n_paths, tree.horizon + 1)
        divs = quotes[:, 2:]
        if divs[..., 0].any():
            j = int(divs[..., 0].any(axis=(1, 2)).argmax())
            raise ValidationError(f"{names[j]}: cumulative dividends must start at 0")
        crossed = quotes[:, 1] < quotes[:, 0]
        if crossed.any():
            j, i, t = np.argwhere(crossed)[0]
            sec = self.securities[j]
            raise ValidationError(
                f"Assumption A violated at path {tree.paths[i]}, t={t}: "
                f"ask {sec.ask[i, t]} < bid {sec.bid[i, t]} for {sec.name}"
            )
        steps = divs[..., 1:] - divs[..., :-1]
        d_gap = steps[:, 1] - steps[:, 0]
        if (d_gap < -1e-15).any():
            j, i, t = np.argwhere(d_gap < -1e-15)[0]
            raise ValidationError(
                f"Assumption A violated at path {tree.paths[i]}, t={t + 1}: "
                f"ask dividend increment exceeds bid increment for {names[j]}"
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
    B = np.ones((model.tree.n_paths, model.tree.horizon + 1))
    np.cumprod(1.0 + model.rates, axis=1, out=B[:, 1:])
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
        # each slot's holdings over (t-1, t] read as a process at t-1; the
        # first date, cell and path across the slots
        slots = [h[1:, j].T for j in range(h.shape[1])]
        bad = [(at, j) for j, v in enumerate(slots) if (at := tree.unmeasurable_cell(v))]
        if bad:
            at, j = min(bad)
            raise ValidationError(
                f"holdings at t={at[0] + 1} are not predictable: {two_paths(tree, slots[j], at)}"
            )
        return self


def _split(values: np.ndarray, pos_price: np.ndarray, neg_price: np.ndarray):
    """values >= 0 priced with pos_price, values < 0 with neg_price."""
    return values * np.where(values >= 0, pos_price, neg_price)


def make_self_financing(model: MarketModel, legs: np.ndarray) -> TradingStrategy:
    """Complete predictable security legs to a self-financing strategy.

    ``legs`` has shape (horizon+1, n_securities, n_paths) with ``legs[0] = 0``.
    The savings-account slot absorbs every purchase, sale and dividend, making
    the rebalance identity exact at every date by construction.  The initial
    savings position makes the date-0 setup cost zero.
    """
    tree = model.tree
    n, T, S = tree.n_paths, tree.horizon, model.n_securities
    legs = np.asarray(legs, dtype=float)
    if legs.shape != (T + 1, S, n):
        raise ValidationError(f"legs must have shape {(T + 1, S, n)}, got {legs.shape}")
    B, _ = model.discounts()
    # (date, security, path) arrays, dates 0..T-1; each date's purchases and
    # sales at its prices (the setup at t=0), and from t=1 its dividends over
    # (t-1, t] on the units held into it
    quotes = [(sec.bid, sec.ask, sec.div_ask, sec.div_bid) for sec in model.securities]
    bid, ask, div_ask, div_bid = np.array(quotes).transpose(1, 3, 0, 2)[:, :T]
    rebal = _split(legs[1:] - legs[:-1], ask, bid).sum(axis=1, initial=0.0)
    receipts = _split(legs[1:T], div_ask[1:] - div_ask[:-1], div_bid[1:] - div_bid[:-1])
    h = np.zeros((T + 1, S + 1, n))
    h[:, 1:, :] = legs
    h[1, 0] = -rebal[0]
    h[2:, 0] = (receipts.sum(axis=1, initial=0.0) - rebal[1:]) / B[:, 1:T].T
    np.cumsum(h[1:, 0], axis=0, out=h[1:, 0])
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
    payoff = np.maximum(prices.mean(axis=1) - float(finite(strike, "strike")), 0.0)
    D = np.zeros((n, T + 1))
    D[:, T] = payoff
    return CashFlow(D)


def _resolve_security(model: MarketModel, security) -> Security:
    """A :class:`Security`, or the market's security of that name or of that
    index from 0 (an int, not a bool); anything else is unknown."""
    if isinstance(security, Security):
        return security
    n = model.n_securities
    if isinstance(security, int) and not isinstance(security, bool) and 0 <= security < n:
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
    delta = float(finite(delta, "delta"))
    kappa_ask = float(finite(kappa_ask, "kappa_ask"))
    kappa_bid = float(finite(kappa_bid, "kappa_bid"))
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
            v = integer(v, f"default time on path {tree.paths[i]}")
            if not 1 <= v <= T:
                raise ValidationError(
                    f"default time on path {tree.paths[i]} must lie in 1..{T} or be null"
                )
            tau_eff.append(v)
    tau_eff = np.array(tau_eff)[:, None]
    t = np.arange(T + 1)
    defaulted = tau_eff <= t
    bad = tree.unmeasurable_cell(defaulted)
    if bad is not None:
        date, head, i = bad
        yes, no = (head, i) if defaulted[head, date] else (i, head)
        raise ValidationError(
            f"tau is not a stopping time: default by t={date} on path {tree.paths[yes]}, "
            f"not on path {tree.paths[no]}"
        )
    protection, fees = np.where(defaulted, delta, 0.0), np.minimum(t, tau_eff - 1)
    return protection - kappa_ask * fees, protection - kappa_bid * fees
