"""Competitor index structures from the paper's evaluation (Section 4).

- :mod:`repro.baselines.seqscan` — linear scan, the normalisation baseline.
- :mod:`repro.baselines.rtree` — Guttman R-tree (quadratic split); the
  substrate the original authors modified to obtain their SR-tree.
- :mod:`repro.baselines.sstree` — White & Jain SS-tree (bounding spheres).
- :mod:`repro.baselines.srtree` — Katayama & Satoh SR-tree (sphere ∩ rect),
  the DP-based competitor of Figures 6 and 7.
- :mod:`repro.baselines.kdbtree` — Robinson KDB-tree (clean 1-d splits with
  cascading), the Table 1 motivation for the hybrid relaxation.
- :mod:`repro.baselines.hbtree` — Lomet & Salzberg hB-tree (holey bricks),
  the SP-based competitor of Figure 6.

Extension competitors from the paper's Section 2 classification (not part
of its figures, provided for completeness):

- :mod:`repro.baselines.xtree` — Berchtold et al. X-tree (supernodes).
- :mod:`repro.baselines.mtree` — Ciaccia et al. M-tree (distance-based;
  metric fixed at build time, no window queries — the class limitation the
  hybrid tree avoids).
- :mod:`repro.baselines.vafile` — Weber et al. VA-file (quantization scan,
  the constructive form of the linear-scan argument).

All indexes answer ``range_search``, ``distance_range`` and ``knn`` (plus
the batched ``*_many`` and measured ``*_loop`` forms), take ``insert`` and
expose an ``io`` accountant and ``pages()``.  The seven paged structures
and the hybrid tree share one base, :class:`repro.engine.mixins.PagedIndex`
(page layout, node manager, introspection, ``from_points``,
``point_search`` and the traversal-kernel fetch members); the scans build
on :class:`repro.engine.mixins.BatchQueryMixin`.
"""

from repro.baselines.hbtree import HBTree
from repro.baselines.kdbtree import KDBTree
from repro.baselines.mtree import MTree
from repro.baselines.rtree import RTree
from repro.baselines.seqscan import SequentialScan
from repro.baselines.srtree import SRTree
from repro.baselines.sstree import SSTree
from repro.baselines.vafile import VAFile
from repro.baselines.xtree import XTree

__all__ = [
    "HBTree",
    "KDBTree",
    "MTree",
    "RTree",
    "SRTree",
    "SSTree",
    "SequentialScan",
    "VAFile",
    "XTree",
]
