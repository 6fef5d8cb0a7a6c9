"""The rules that refuse a bad number in a setting.

A config dataclass checks its own numbers with :func:`check_numbers`,
and a scenario runner checks each param it reads with
:func:`number_param`, so a setting is refused the same way whether it
comes from a spec file or is built in code.  A frame size is checked
by :func:`frame_hw_param`.
"""

from __future__ import annotations

import math
from dataclasses import fields

from repro.common.errors import ConfigurationError

__all__ = ["number_param", "frame_hw_param", "check_numbers"]


def number_param(
    value, name: str, whole: bool = False, positive: bool = False
) -> int | float:
    """``value``, refused unless a finite number ``>= 0`` (``> 0``).

    ``whole`` also refuses a fraction, which ``int`` would truncate.
    ``name`` is the setting's full name, as the message reports it.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (
        number
        and math.isfinite(value)
        and (value > 0 if positive else value >= 0)
        and (not whole or value == int(value))
    ):
        raise ConfigurationError(
            f"{name} must be a {'whole' if whole else 'finite'} number "
            f"{'> 0' if positive else '>= 0'}, got {value!r}"
        )
    return int(value) if whole else float(value)


def frame_hw_param(value, name: str) -> tuple[int, int]:
    """``value`` as a frame size ``(H, W)``, refused unless two whole
    numbers ``>= 5`` (the smallest frame a model backbone takes).

    ``name`` is the setting's full name, as the message reports it.
    """
    if not (
        isinstance(value, (tuple, list))
        and len(value) == 2
        and all(
            isinstance(side, (int, float))
            and not isinstance(side, bool)
            and math.isfinite(side)
            and side == int(side)
            and side >= 5
            for side in value
        )
    ):
        raise ConfigurationError(
            f"{name} must be two whole numbers >= 5, got {value!r}"
        )
    return int(value[0]), int(value[1])


def check_numbers(config) -> None:
    """Apply :func:`number_param` to each number field of ``config``.

    ``config`` is a frozen dataclass instance.  A field whose default is
    an int is a count and must be whole; one whose default is a float
    must be finite.  The int or float returned replaces the field's
    value.  ``seed`` is not checked: any int seeds a stream.
    """
    for f in fields(config):
        if type(f.default) in (int, float) and f.name != "seed":
            value = number_param(
                getattr(config, f.name), f.name, whole=type(f.default) is int
            )
            object.__setattr__(config, f.name, value)
