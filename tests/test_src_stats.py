"""Two invariants of the package that ``tools/src_stats.py`` reports.

The tool prints them for review; these tests fail when one breaks:

- every public name of ``isacpilot`` is referenced by a package module, so
  a name that only tests, tools or the benchmark use moves out with them
  (the test oracles live in ``tests/oracles.py``);
- no ``np.linalg`` call site is a ``cholesky`` or an ``inv``: the mixture
  statistics Sigma_n are eliminated once, in ``metrics.comm_state``, and
  every reader takes its solves from that state.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "isacpilot"
FORBIDDEN = {"cholesky", "inv"}


def load_src_stats():
    spec = importlib.util.spec_from_file_location("src_stats", ROOT / "tools" / "src_stats.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_stats = load_src_stats()


def linalg_sites(package):
    """(module, enclosing function, routine) of every ``np.linalg`` call."""
    return [
        (path.stem, *call)
        for path in sorted(package.glob("*.py"))
        for call in src_stats.linalg_calls(path)
    ]


def test_every_public_name_is_referenced_by_the_package():
    names = src_stats.public_names(PACKAGE / "__init__.py")
    assert names
    assert src_stats.unreferenced(PACKAGE, names) == []


def test_no_linalg_call_is_a_cholesky_or_an_inverse():
    sites = linalg_sites(PACKAGE)
    assert sites
    assert [site for site in sites if site[2] in FORBIDDEN] == []


def test_the_checks_catch_a_test_only_name_and_a_factorization(tmp_path):
    (tmp_path / "__init__.py").write_text("from .kernel import kept, test_only\n")
    (tmp_path / "kernel.py").write_text(
        "import numpy as np\n\n\n"
        "def kept(a):\n    return np.linalg.cholesky(a)\n\n\n"
        "def test_only(a):\n    return kept(np.linalg.inv(a))\n\n\n"
        "def caller(a):\n    return kept(a)\n"
    )
    names = src_stats.public_names(tmp_path / "__init__.py")
    assert names == {"kept", "test_only"}
    assert src_stats.unreferenced(tmp_path, names) == ["test_only"]
    forbidden = [site for site in linalg_sites(tmp_path) if site[2] in FORBIDDEN]
    assert forbidden == [("kernel", "kept", "cholesky"), ("kernel", "test_only", "inv")]
