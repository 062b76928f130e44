"""The paper's experiments as registered plugins.

Importing this package registers every shipped experiment in
:data:`repro.api.experiment.EXPERIMENT_REGISTRY` (``figure2``,
``sequential``, ``frontrunning``, ``oracle``, ``ablation``,
``attack_matrix``, ``propagation``, ``horizon``, ``chaos``).  Run one with
``repro run <name>`` (or ``repro claims`` / ``repro trace``), or from
Python with :func:`repro.api.run_experiment`.
"""

from . import (  # noqa: F401  (imported for their registration side effect)
    ablations,
    attack_matrix,
    chaos,
    figure2,
    frontrunning,
    horizon,
    oracle,
    propagation,
    sequential,
)
