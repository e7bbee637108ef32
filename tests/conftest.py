"""Suite-wide hooks.  A test module with a ``POOLED`` run-set pool (the
acceptance suite) runs last, and the run sets its collected tests use start
in worker processes as soon as collection ends, so that they compute while
the other modules run.
"""


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
