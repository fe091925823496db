"""A reimplementation of the basic functionality of SODA (§V-B).

SODA [9] plans queries in epochs and in stages:

* :mod:`templates` — queries arrive as fixed, user-defined operator
  templates; reuse happens by "gluing" templates so each stream is generated
  exactly once,
* :mod:`macroq` — admission control by overall resource consumption,
* :mod:`macrow` — operator placement over the admitted templates,
* :mod:`miniw` — local operator swaps improving the placement,
* :mod:`planner` — the :class:`SodaPlanner` facade.
"""

from repro.baselines.soda.planner import SodaPlanner
from repro.baselines.soda.templates import QueryTemplate, build_template

__all__ = ["SodaPlanner", "QueryTemplate", "build_template"]
