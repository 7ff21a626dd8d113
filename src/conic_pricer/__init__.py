"""Good-deal and no-arbitrage pricing on finite event trees with
proportional transaction costs and dividend-paying securities."""

from .errors import ComputationError, PricerError, ValidationError
from .lattice import (
    EventTree,
    NodeRef,
    derive_filtration,
    ensure_adapted,
    tail_sum,
)
from .market import (
    CashFlow,
    MarketModel,
    Security,
    TradingStrategy,
    apply_transaction_costs,
    asian_call,
    cds_dividends,
    discount_factors,
    make_self_financing,
)
from .cone import (
    GoodDealWitness,
    NodeRows,
    arbitrage_check,
    generators_for,
    hedge_strategy,
)
from .acceptability import DensityBand, dglr_eval
from .pricing import (
    NgdResult,
    PriceQuote,
    forward_prices,
    good_deal_certificate,
    good_deal_prices,
    liquidity_surface,
    ngd_check,
    noarb_bounds,
)

__version__ = "0.1.0"
