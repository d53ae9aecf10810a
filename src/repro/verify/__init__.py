"""Verification subsystem: invariant oracles, differential references,
and golden-run regression pinning.

Four layers, all optional and zero-cost when off:

1. **Runtime invariant oracles** — :class:`InvariantChecker` attaches to
   a live run and asserts the cross-subsystem invariant catalog at a
   configurable cadence; violations raise
   :class:`~repro.errors.InvariantViolation` with an evidence snapshot.
2. **Differential references** — :class:`ReferenceLockTable` and
   :func:`reference_classify_region` are naive, obviously-correct
   re-implementations; :class:`ShadowLockTable` runs the real lock
   table and the reference side by side and raises
   :class:`~repro.errors.ShadowDivergence` when they disagree.
3. **Golden-run manifests** — :mod:`repro.verify.golden` pins sha256
   hashes of the results and traces of the pinned suite
   (:mod:`repro.verify.suite`) plus two golden-only controller
   configurations, turning "the simulated trajectory changed" into a
   test failure.
4. **Analytic envelope** — :func:`check_envelope` bounds simulated
   throughput with the mean-value model of
   :mod:`repro.control.analytic`: goldens pin *change*, the envelope
   pins *plausibility*.

Enable on a run with ``run_simulation(..., verify=VerifyConfig())`` or
the CLI's ``--verify`` flag.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CADENCES",
    "VerifyConfig",
    "InvariantChecker",
    "ReferenceLockTable",
    "reference_classify_region",
    "ShadowLockTable",
    "canonical_grants",
    "EnvelopeResult",
    "check_envelope",
    "check_goldens",
    "compute_golden_manifest",
    "default_golden_path",
    "update_goldens",
    "VerificationError",
    "InvariantViolation",
    "ShadowDivergence",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.errors": ("InvariantViolation", "ShadowDivergence",
                     "VerificationError"),
    "repro.verify.config": ("CADENCES", "VerifyConfig"),
    "repro.verify.envelope": ("EnvelopeResult", "check_envelope"),
    "repro.verify.golden": ("check_goldens", "compute_golden_manifest",
                            "default_golden_path", "update_goldens"),
    "repro.verify.invariants": ("InvariantChecker",),
    "repro.verify.reference": ("ReferenceLockTable",
                               "reference_classify_region"),
    "repro.verify.shadow": ("ShadowLockTable", "canonical_grants"),
})
