"""Error taxonomy shared across the package, and the one argument check.

Two failure classes map onto the CLI exit codes: bad inputs or
configuration (exit 1) and numerical failure at run time (exit 2).
"""

import numpy as np


class ConfigurationError(ValueError):
    """Invalid parameters, config keys, or violated preconditions."""


class NumericalFailureError(RuntimeError):
    """A computation produced NaN/Inf or missed its error tolerance."""


# Every shared argument range, by its text. A test takes a float or an
# array (the power-of-two test a scalar only, and a non-integer fails it),
# and NaN fails each one.
_RANGES = {
    "finite": lambda v: abs(v) < np.inf,
    "finite and > 0": lambda v: (0 < v) & (v < np.inf),
    ">= 0 and finite": lambda v: (0 <= v) & (v < np.inf),
    "finite and > 1": lambda v: (1 < v) & (v < np.inf),
    "finite and >= 1": lambda v: (1 <= v) & (v < np.inf),
    "a whole number >= 1": lambda v: (1 <= v) & (v < np.inf) & (np.floor(v) == v),
    "in (0, 2)": lambda v: (0 < v) & (v < 2),
    "in (0, 1)": lambda v: (0 < v) & (v < 1),
    "a power of two >= 16": lambda v: (16 <= v < np.inf and v == int(v)
                                       and not int(v) & (int(v) - 1)),
}
# The paper's alpha, beta and p, and the library's s and dim, carry one
# range wherever they are passed.
_PARAMETERS = {"alpha": "in (0, 2)", "beta": ">= 0 and finite",
               "p": "finite and > 1", "s": "in (0, 1)", "dim": "a whole number >= 1"}


def require(range_text=None, **named) -> None:
    """Raise ConfigurationError("<name> must be <range>, got <value>") for
    the first named value (for an array, its first entry) out of range.
    The names in _PARAMETERS always take their own range; every other name
    takes range_text, a key of _RANGES."""
    for name, value in named.items():
        text = _PARAMETERS.get(name, range_text)
        ok = _RANGES[text](value)
        if not np.all(ok):
            if np.ndim(value):
                value = np.asarray(value)[~ok].flat[0]
            raise ConfigurationError(f"{name} must be {text}, got {value}")
