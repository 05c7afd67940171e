"""Optional-dependency gates shared across the package.

The core library is stdlib-only, every FrozenRoad backend included;
numpy is an extra that powers the synthetic generators, object placement
and workload sampling, nothing else.  Every feature that needs it
funnels through :func:`require_numpy`, so the install guidance lives
(and can be reworded) in exactly one place.
"""

from __future__ import annotations


def require_numpy(feature: str, *, hint: str = ""):
    """Import and return numpy, or raise ImportError naming ``feature``.

    ``hint`` appends feature-specific guidance (e.g. a stdlib fallback)
    after the install instructions.
    """
    try:
        import numpy
    except ImportError as exc:
        message = (
            f"{feature} requires the optional numpy dependency: install it "
            f"with pip install 'road-repro[numpy]' (or pip install numpy)"
        )
        if hint:
            message += f", {hint}"
        raise ImportError(message) from exc
    return numpy
