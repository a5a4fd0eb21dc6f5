"""The package's public names resolve, on first use, so a deleted name cannot stay exported."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import optsmp
from optsmp import combinatorics, smp


def test_every_exported_name_resolves():
    assert optsmp.__all__
    missing = [name for name in optsmp.__all__ if not hasattr(optsmp, name)]
    assert not missing, f"optsmp.__all__ names missing attributes: {missing}"
    assert len(set(optsmp.__all__)) == len(optsmp.__all__)


def test_every_exported_name_imports_in_a_fresh_interpreter():
    # Lazy exports: nothing is bound before the first import of each name.
    code = (
        "import optsmp\n"
        "assert set(optsmp.__all__) <= set(dir(optsmp)), 'dir misses exports'\n"
        "for name in optsmp.__all__:\n"
        "    exec(f'from optsmp import {name}')\n"
        "print(len(optsmp.__all__))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(optsmp.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == str(len(optsmp.__all__))


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no_such_name"):
        optsmp.no_such_name
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        from optsmp import no_such_name


def test_smp_binds_the_oracle_moved_to_combinatorics():
    assert smp.deterministic_cc_matrix is combinatorics.deterministic_cc_matrix
    assert smp.equality_function is combinatorics.equality_function
    assert smp.DCC_N_CAP == combinatorics.DCC_N_CAP
    assert optsmp.deterministic_cc_matrix is combinatorics.deterministic_cc_matrix
