"""The package's `__getattr__` (PEP 562): the oracle's names on `patalg`
load `oracle` on first use, not with every `patc` start.  A function
defined in `__init__` would hold the package's namespace in a cycle past
shutdown, and with the heap frozen at exit that tears the modules down in
an order that cost `patc fuzz --suite algebra` about 5 ms more."""

ORACLE_NAMES = ("differential_compile_check", "enumerate_values", "gen_pattern", "validate_tree")


def __getattr__(name: str):
    if name in ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__package__!r} has no attribute {name!r}")
