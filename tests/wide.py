"""Bases beyond the acceptance corpus, for hypothesis tests: any leading
entry, preperiod up to 6, period up to 12 and entries in [-6, 6]."""

from __future__ import annotations

import warnings

from hypothesis import strategies as st

from exptree.errors import NormalizationWarning
from exptree.partition import Partition, validate_base
from exptree.sequences import canonicalize

entries = st.integers(-6, 6)


def wide_bases():
    """Strictly preperiodic bases of any leading entry."""
    return st.builds(
        canonicalize,
        st.lists(entries, max_size=6),
        st.lists(entries, min_size=1, max_size=12),
    ).filter(lambda s: not s.is_periodic())


def wide_partitions():
    """The partitions of :func:`wide_bases`."""
    return wide_bases().map(_quiet_partition)


def _quiet_partition(s) -> Partition:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormalizationWarning)
        return validate_base(s)
