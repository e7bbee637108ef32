"""Suite-wide hooks.

OpenBLAS picks its kernel by CPU, and the kernels round products
differently, so the golden traces hold on one kernel only.  On x86-64 the
suite pins the Haswell kernel, which every AVX2 CPU runs; numpy is not yet
imported here, and worker processes inherit the setting.

A test module with a ``POOLED`` run-set pool (the acceptance suite) runs
last, and the run sets its collected tests use start in worker processes as
soon as collection ends, so that they compute while the other modules run.
"""

import os
import platform

if platform.machine().lower() in ("x86_64", "amd64"):
    os.environ["OPENBLAS_CORETYPE"] = "Haswell"


def _pooled(item):
    return hasattr(getattr(item, "module", None), "POOLED")


def _fixtures_by_module(items):
    fixtures = {}
    for item in filter(_pooled, items):
        fixtures.setdefault(item.module, set()).update(item.fixturenames)
    return fixtures


def pytest_collection_modifyitems(items):
    items.sort(key=_pooled)


def pytest_collection_finish(session):
    for module, names in _fixtures_by_module(session.items).items():
        module.POOLED.start(names)


def pytest_sessionfinish(session):
    for module in _fixtures_by_module(session.items):
        module.POOLED.close()
