import sys

import pytest

from ordibench.data import SynthSpec, generate_synthetic


@pytest.fixture(scope="session")
def small_table():
    """50 identities x 4 samples, the size most split checks want."""
    spec = SynthSpec(
        n_identities=50,
        samples_per_identity=4,
        dimension=16,
        age_range=(20, 60),
        sigma_id=2.0,
        sigma_obs=0.5,
        seed=3,
    )
    return generate_synthetic(spec)


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    report = getattr(mod, "_REPORT", None)
    if not report:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(report):
        label, ok, detail = report[n]
        tag = "PASS" if ok else "FAIL"
        line = f"[{tag}] criterion {n}: {label}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
