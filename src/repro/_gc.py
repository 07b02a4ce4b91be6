"""Mercurial's ``util.nogc``: collections trigger by allocation count, so a
phase building tens of thousands of containers it keeps re-walks them.
Pause the collector only around phases that create no cyclic garbage."""

import functools
import gc
import inspect


def nogc(func):
    """Run *func* with the collector off; turn it back on only if it was
    on, so nested and raising calls leave it as they found it."""
    if inspect.isgeneratorfunction(func):
        raise TypeError("nogc would pause only the generator's creation")

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return wrapper
