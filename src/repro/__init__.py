"""repro -- a fully-automated desynchronization flow for synchronous circuits.

A from-scratch Python reproduction of the DAC 2007 desynchronization
flow: gate-level netlist handling, technology library support, the
``drdesync`` conversion tool (regions, flip-flop substitution, latch
controllers, C-Muller elements, delay elements, constraint generation),
plus the substrates needed to evaluate it end to end (STA, event-driven
simulation, placement & routing model, power and variability analysis,
DLX / ARM-class design generators).

Quick start::

    from repro.liberty import core9_hs
    from repro.designs import pipeline3
    from repro.desync import Drdesync

    library = core9_hs()
    design = pipeline3(library)
    result = Drdesync(library).run(design)
    print(result.summary())
    print(result.export_sdc())
"""

__version__ = "1.11.0"

from . import obs  # noqa: F401
from . import netlist  # noqa: F401
from . import liberty  # noqa: F401
from . import sta  # noqa: F401
from . import stg  # noqa: F401
from . import desync  # noqa: F401
from . import engine  # noqa: F401
from . import dft  # noqa: F401
from . import sim  # noqa: F401
from . import physical  # noqa: F401
from . import power  # noqa: F401
from . import variability  # noqa: F401
from . import perf  # noqa: F401
from . import designs  # noqa: F401
from . import flow  # noqa: F401
from . import service  # noqa: F401
