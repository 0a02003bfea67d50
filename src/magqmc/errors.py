"""The package's error classes and the exit code each maps to.

Every failure magqmc reports derives from :class:`MagqmcError` through one
of three kinds, and the kind fixes the ``exit_code`` the command line
returns:

- 2, :class:`InputError`: a bad configuration or a bad input artifact;
- 3, :class:`SolverError`: the kernels, the basis or the SCF failed;
- 4, :class:`SamplingError`: the walker population could not be drawn or
  controlled.

Each kind also derives from the builtin that matches it (ValueError for
bad input, RuntimeError for the rest), so callers may catch either.
"""

from __future__ import annotations


class MagqmcError(Exception):
    """Base of every error magqmc raises on purpose; see ``exit_code``."""

    exit_code: int


class InputError(MagqmcError, ValueError):
    """Invalid input: configuration, unit value or artifact file."""

    exit_code = 2


class SolverError(MagqmcError, RuntimeError):
    """A deterministic solver (kernels, basis, SCF) missed its tolerance."""

    exit_code = 3


class SamplingError(MagqmcError, RuntimeError):
    """The walker population could not be drawn or kept under control."""

    exit_code = 4
