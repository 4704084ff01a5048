"""The benchmark's tracer wraps package functions by module and name
(bench/tracer.py). Installing it here makes a rename of any wrapped name fail
this suite, not only a traced benchmark run."""

from pathlib import Path

import ordibench
import ordibench.cli  # noqa: F401  (the tracer wraps a cli name too)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_installs_and_uninstalls_on_the_package(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    names = [(m, a) for m, a, _ in tracer.SPAN_PATCHES + tracer.SUM_PATCHES]
    names += [("training", "batch_loss_and_grads"), ("training", "forward")]
    originals = {(m, a): getattr(getattr(ordibench, m), a) for m, a in names}
    t = tracer.Tracer(tmp_path)
    t.install(ordibench)
    try:
        wrapped = {(m, a) for (m, a), fn in originals.items()
                   if getattr(getattr(ordibench, m), a) is not fn}
    finally:
        t.uninstall()
    assert wrapped == set(originals)
    assert all(getattr(getattr(ordibench, m), a) is fn for (m, a), fn in originals.items())
