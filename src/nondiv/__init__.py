"""Exact nondivergence checker for A*M actions on SL_n-product quotients."""

__version__ = "0.1.0"

from .config import build_config, parse_problem
from .criterion import check_general
