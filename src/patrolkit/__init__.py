"""patrolkit: poaching-risk prediction and robust patrol planning.

The pipeline runs from raw ranger data to deployable patrol routes:
grid ingestion and effort reconstruction, effort-aware ensemble risk
prediction with uncertainty, piecewise-linear risk models, and a robust
mixed-integer flow program that turns predictions into patrol plans.

The package root exports nothing but ``__version__``, so that importing
one module (``patrolkit.io``, ``patrolkit.synth``) loads only what that
module needs. Import names from their modules: ``patrolkit.cli`` runs the
commands, and ``patrolkit.planner`` gathers the planner's public API.
"""

__version__ = "0.1.0"
