"""Executable semantics for multi-active objects: two interpreters, a
source-to-source translator and weak-simulation checkers between them."""

from importlib import resources

from .lang import (
    check_wellformed,
    parse_abs,
    parse_masp,
    pretty_abs,
    pretty_masp,
)
from .translate import TranslateError, translate_program, detect_future_of_future
from .masp.engine import initial_config, run
from .absm.engine import abs_initial_config, abs_run
from .canon import abs_digest, masp_digest
from .equiv import EquivContext, config_equiv, stmt_equiv, value_equiv
from .simulate import check_backward_simulation, check_forward_simulation
from .explore import explore, default_properties
from .deadlock import diagnose_deadlock
from .cli import cli

__version__ = "0.1.0"


def corpus_path(name: str):
    """Path of a shipped corpus program, e.g. ``bank_account.abs``."""
    return resources.files(__name__) / "corpus" / name


__all__ = [n for n in dir() if not n.startswith("_")]
