"""Private state belongs inside the library: no public callable takes a
parameter whose name starts with an underscore.  The package publishes
exactly the names its modules list in ``__all__``."""

import inspect

import exptree
from exptree import analysis, errors, partition, realization, sequences, treebuild, triods


def test_public_callables_have_no_private_parameters():
    offenders = []
    for name in exptree.__all__:
        obj = getattr(exptree, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue  # no introspectable signature
        offenders += [f"{name}({p})" for p in params if p.startswith("_")]
    assert not offenders, f"private parameters in the public API: {offenders}"


def test_package_exports_the_module_lists():
    modules = (analysis, errors, partition, realization, sequences, treebuild, triods)
    union = set().union(*(m.__all__ for m in modules))
    assert set(exptree.__all__) == union
    assert len(exptree.__all__) == len(union)
    for m in modules:
        assert all(getattr(exptree, name) is getattr(m, name) for name in m.__all__)


def test_every_domain_error_is_exported():
    classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.ExptreeError)
    }
    assert classes - set(exptree.__all__) == {"InternalInvariantError"}
    assert {"NotFormalError", "NormalizationWarning"} <= set(exptree.__all__)
    assert "error_name" not in exptree.__all__
