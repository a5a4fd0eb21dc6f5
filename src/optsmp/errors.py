"""Exception types shared across the package.

Every error the library raises deliberately derives from OptSmpError so
callers (and the CLI exit-code mapping) can tell deliberate rejections from
genuine bugs.
"""

from __future__ import annotations


class OptSmpError(ValueError):
    """Base class for all deliberate rejections raised by this package."""


class ModeMismatchError(OptSmpError):
    """Operands describe different mode counts or incompatible layouts."""


class NormalizationError(OptSmpError):
    """State weights do not satisfy the normalization contract."""


class SupportCapError(OptSmpError):
    """An operation would require more support entries than the hard cap."""


class DimensionCapError(OptSmpError):
    """A dense operator exceeds the dimension cap, a dimension count has
    more decimal digits than CPython prints, a sweep has too many points, or
    a verify suite's size is above its cap."""


class PhotonCapError(OptSmpError):
    """A message would put more photons in one mode pair than the exact
    interference computation handles."""


class InputCapError(OptSmpError):
    """Inputs have more bits than the 64-bit integers that hold them, their
    codeword rows more entries than are built at once, or a sampled run
    more pairs than are drawn at once."""


class BasisMismatchError(OptSmpError):
    """Dense operators do not share the same ordered basis."""


class VacuousTruncationError(OptSmpError):
    """A photon-number cutoff would remove the entire state."""


class PremiseViolationError(OptSmpError):
    """A check's hypothesis fails (for example retained weight < 1 - delta).

    Distinct from a bound failure: the claim was never applicable.
    """


class ConfigError(OptSmpError):
    """Invalid run configuration or protocol description.

    The message names the offending field. The CLI maps this to exit code 2.
    """
