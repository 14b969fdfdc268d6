"""Trace-driven simulation engine.

Thin orchestration over the predictor batch interface: reset, run,
(optionally) warm-up split.  All heavy lifting lives in the predictors'
``simulate`` fast paths; the engine guarantees the contract around them
(fresh state, consistent result packaging).

Detailed (Section-4) simulation additionally dispatches through the
batch attribution kernels of the kernel registry
(:mod:`repro.sim.kernels`): the predictor's configuration is mapped
back to its spec and lane, and the scheme's ``detailed`` kernel runs
when the compiled driver is available.  ``REPRO_DETAILED_KERNEL`` pins
the choice to ``batch`` or ``scalar`` (default ``auto``).  Under
``auto`` every fallback is reported through :mod:`repro.health`; under
the explicit ``batch`` pin a scheme without a usable batch kernel
raises ``RuntimeError`` instead of silently running the scalar loop.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.interfaces import BranchPredictor, DetailedSimulation, SimulationResult
from repro.traces.record import BranchTrace

__all__ = ["run", "run_detailed", "run_steps"]


def run(
    predictor: BranchPredictor,
    trace: BranchTrace,
    reset: bool = True,
    warmup: int = 0,
) -> SimulationResult:
    """Simulate ``predictor`` over ``trace``.

    Parameters
    ----------
    reset:
        Restore power-on state first (default).  Pass ``False`` to
        continue from existing state (e.g. across trace chunks).
    warmup:
        If non-zero, the first ``warmup`` branches still train the
        predictor but are excluded from the returned result (the paper
        reports whole-trace rates, so the default is 0).
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if warmup > len(trace):
        raise ValueError(f"warmup ({warmup}) exceeds trace length ({len(trace)})")
    if reset:
        predictor.reset()
    result = predictor.simulate(trace)
    if warmup:
        result = SimulationResult(
            predictor_name=result.predictor_name,
            trace_name=result.trace_name,
            predictions=result.predictions[warmup:],
            outcomes=result.outcomes[warmup:],
        )
    return result


def _detailed_kernel_mode() -> str:
    mode = os.environ.get("REPRO_DETAILED_KERNEL", "auto").strip().lower() or "auto"
    if mode not in ("auto", "batch", "scalar"):
        raise ValueError(
            f"REPRO_DETAILED_KERNEL must be auto/batch/scalar, got {mode!r}"
        )
    return mode


def _fallback(predictor: BranchPredictor, mode: str, reason: str) -> None:
    """Record (or, pinned, refuse) a batch -> scalar detailed fallback.

    Under ``REPRO_DETAILED_KERNEL=auto`` the degradation is a health
    event and the caller runs the scalar loop; under an explicit
    ``batch`` pin a silent fall-through would defeat the pin's point,
    so it raises, naming the scheme.
    """
    from repro import health

    if mode == "batch":
        raise RuntimeError(
            f"REPRO_DETAILED_KERNEL=batch but {predictor.name} has no usable "
            f"batch attribution kernel: {reason}"
        )
    health.engine_used(
        "detailed-kernel",
        "scalar",
        expected="scalar" if mode == "scalar" else "batch",
        reason=reason,
    )


def _run_detailed_batch(
    predictor: BranchPredictor, trace: BranchTrace, mode: str
) -> Optional[DetailedSimulation]:
    """The batch attribution kernel's detailed simulation, or ``None``.

    ``None`` means the caller should fall back to the scalar
    ``simulate_detailed`` path; the fallback is recorded as a health
    event under ``auto`` and raises ``RuntimeError`` under the explicit
    ``batch`` pin.  The predictor resolves through the kernel registry
    (:func:`repro.sim.kernels.spec_for_predictor` -> lane -> the
    scheme's ``detailed`` kernel), whose engine follows
    ``REPRO_KERNEL``.  The batch path never touches the predictor's own
    tables — callers under ``reset=True`` semantics observe power-on
    state either way.
    """
    from repro import health
    from repro.sim import kernels, lanes

    try:
        spec = kernels.spec_for_predictor(predictor)
        kind, lane = ("scalar", None) if spec is None else kernels.kernel_for_spec(spec)
        if lane is None:
            _fallback(
                predictor, mode, f"no batch attribution kernel for {predictor.name}"
            )
            return None
        engine, reason = kernels.family_engine(kind)
        if engine == "scalar":
            # REPRO_KERNEL=scalar, or no compiler: the batch tier has
            # nothing to run with.
            _fallback(predictor, mode, reason)
            return None
        predictions, counter_ids = kernels.KERNELS[kind].detailed(lane, trace)
        num_counters = lanes.detailed_num_counters(lane)
    except RuntimeError:
        raise  # pinned-mode refusals (and REPRO_KERNEL=c without a compiler)
    except Exception as exc:  # fall back rather than lose the analysis
        if mode == "batch":
            raise RuntimeError(
                f"REPRO_DETAILED_KERNEL=batch but the batch kernel for "
                f"{predictor.name} failed: {exc}"
            ) from exc
        health.emit(
            "detailed-kernel",
            expected="batch",
            actual="scalar",
            reason=f"batch kernel failed: {exc}",
            severity="degraded",
        )
        return None
    health.engine_used("detailed-kernel", "batch", expected="batch")
    result = SimulationResult(
        predictor_name=predictor.name,
        trace_name=trace.name,
        predictions=predictions,
        outcomes=trace.outcomes,
    )
    return DetailedSimulation(
        result=result,
        counter_ids=counter_ids,
        num_counters=num_counters,
        pcs=trace.pcs,
    )


def run_detailed(
    predictor: BranchPredictor,
    trace: BranchTrace,
    reset: bool = True,
    warmup: int = 0,
) -> DetailedSimulation:
    """Simulate with per-access counter attribution (Section-4 analysis).

    Parameters mirror :func:`run`: ``warmup`` branches still train the
    predictor but are excluded from the returned result (and from the
    attribution arrays).  With ``reset=True`` (the default) the
    simulation dispatches through the batch attribution kernels when
    ``$REPRO_DETAILED_KERNEL`` allows (``auto``/``batch``; ``scalar``
    forces the per-branch loop); results are bit-identical either way.
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if warmup > len(trace):
        raise ValueError(f"warmup ({warmup}) exceeds trace length ({len(trace)})")
    mode = _detailed_kernel_mode()
    detailed = None
    if mode != "scalar" and reset:
        detailed = _run_detailed_batch(predictor, trace, mode)
    elif mode == "batch" and not reset:
        from repro import health

        # the batch kernels replay from power-on state and cannot honour
        # live predictor tables; the pin is overridden loudly, not silently
        health.engine_used(
            "detailed-kernel",
            "scalar",
            expected="batch",
            reason="reset=False continues live predictor state",
        )
    if detailed is None:
        if reset:
            predictor.reset()
        detailed = predictor.simulate_detailed(trace)
    if warmup:
        result = detailed.result
        sliced = SimulationResult(
            predictor_name=result.predictor_name,
            trace_name=result.trace_name,
            predictions=result.predictions[warmup:],
            outcomes=result.outcomes[warmup:],
        )
        detailed = DetailedSimulation(
            result=sliced,
            counter_ids=detailed.counter_ids[warmup:],
            num_counters=detailed.num_counters,
            pcs=None if detailed.pcs is None else detailed.pcs[warmup:],
        )
    return detailed


def run_steps(
    predictor: BranchPredictor, trace: BranchTrace, reset: bool = True
) -> SimulationResult:
    """Simulate via the scalar step interface (reference semantics).

    Exists so tests can assert batch/step equivalence; production code
    should use :func:`run`.
    """
    if reset:
        predictor.reset()
    return BranchPredictor.simulate(predictor, trace)
