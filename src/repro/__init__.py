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

Importing ``repro`` loads no subpackage: each is imported where it is
used, so ``import repro.cli`` loads only what a conversion runs.
"""

__version__ = "1.11.0"
