"""Conventional-oracle baseline: the off-chain operator service.

The RAA-vs-oracle comparison that uses it is the registered ``oracle``
experiment (:mod:`repro.experiments.oracle`).
"""

from .service import AnsweredRequest, OracleOperator

__all__ = ["AnsweredRequest", "OracleOperator"]
