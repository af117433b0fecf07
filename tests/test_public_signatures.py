"""Private state belongs inside the library: no public callable takes a
parameter whose name starts with an underscore."""

import inspect

import exptree


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
