import numpy as np
import pytest

from ellrank.curves import curve_by_label


@pytest.fixture(scope="session")
def run_ctx():
    """The default verify context (11a/14a, n_max 4200, depth 2): forms,
    Rankin series and sweeps built once and shared with the CLI checks."""
    from ellrank.checks import RunContext
    from ellrank.cli import DEFAULT_CONFIG

    return RunContext(dict(DEFAULT_CONFIG))


@pytest.fixture(scope="session")
def form_11a(run_ctx):
    return run_ctx.fe


@pytest.fixture(scope="session")
def form_14a(run_ctx):
    return run_ctx.ge


@pytest.fixture(scope="session")
def rs_11_14(run_ctx):
    return run_ctx.rs


@pytest.fixture(scope="session")
def rs_11_11(run_ctx):
    return run_ctx.rs_ff


@pytest.fixture(scope="session")
def big_tables():
    """Coefficient tables to n_max = 120000 for the pipeline-agreement
    tests (enumeration to 1e4, BSGS beyond; about 0.5 s on a 2-core Xeon,
    built once)."""
    from ellrank.curves import an_table, ap_table

    n_max = 120_000
    out = {}
    for label in ("11a", "14a"):
        curve = curve_by_label(label)
        ap = ap_table(curve, n_max)
        out[label] = an_table(curve.conductor, ap, n_max)
    return out


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
