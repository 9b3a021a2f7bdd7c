"""Correctness gates applied to every cell the benchmark runs.

A cell fails its gate when

* its row (or, on ``skipgram-large``, its embedding checksum row) does not
  hash to the sha256 recorded in ``digests.json`` -- checked only at the
  seed and preset the digests were recorded with;
* its AUC or NMI is not a finite number in [0, 1], or its MI (in nats)
  is not a finite number >= 0;
* a traced replay of it produces a row that differs, byte for byte, from the
  untraced run (checked by the caller, see :func:`row_bytes`);
* a DP fit ends over its privacy budget.

Privacy: every DP trainer in ``repro`` polls the budget *before* each
mechanism step and stops at the first poll that finds the target reached
(Algorithm 3, lines 9-11).  The step that crossed it has already been
charged when training stops, so ``privacy_spent().epsilon`` may exceed the
target by the cost of exactly one step.  The gate therefore passes a fit when
``privacy_spent().epsilon`` is within the target, or when removing the last
charged step brings it within the target; anything further over fails.  Fits
that end over the target by that one step are counted
(``privacy.overshoot_fits``) rather than hidden.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

#: Attribute the step recorder stores ``(sampling_rate, num_steps)`` under.
_LAST_STEP = "_perfbench_last_step"
#: Relative slack on epsilon comparisons (float noise in the RDP sums only).
_EPS_RTOL = 1e-9


class PrivacyGateError(RuntimeError):
    """Raised inside a worker process when a fit ends over its budget."""


def row_bytes(row: Dict[str, Any]) -> bytes:
    """Canonical bytes of a result row (what digests and replays compare)."""
    return json.dumps(row, sort_keys=True).encode("utf-8")


def row_digest(row: Dict[str, Any]) -> str:
    return hashlib.sha256(row_bytes(row)).hexdigest()


def utility_problem(row: Dict[str, Any]) -> Optional[str]:
    """Reason the row's AUC / MI / NMI is out of range, or ``None``.

    AUC and NMI lie in [0, 1]; MI is in nats, so it is only bounded below.
    """
    for key, upper in (("auc", 1.0), ("nmi", 1.0), ("mi", math.inf)):
        if key in row:
            value = row[key]
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                return f"{key}={value!r} is not finite"
            if not 0.0 <= value <= upper:
                return f"{key}={value!r} is outside [0, {upper}]"
    return None


class Gate:
    """Records gate failures per cell; installed around ``make_model``.

    ``digests`` maps cell ids to sha256 hex digests (``None`` disables the
    digest gate).  While ``defer`` is true, finished DP fits are queued and
    checked by :meth:`drain` outside the timed region; otherwise (inside a
    pool worker) a fit over budget raises :class:`PrivacyGateError`, which
    fails its cell.
    """

    def __init__(self, digests: Optional[Dict[str, str]] = None) -> None:
        self.digests = digests
        self.defer = True
        self.tracer = None  # a Tracer to pause while the gate polls
        self.dp_fits = 0
        self.overshoot_fits = 0
        self._pending: List[Tuple[Any, float]] = []
        self._curves: Dict[Tuple[float, float, Tuple[int, ...]], Dict[int, float]] = {}

    # ------------------------------------------------------------------
    # privacy
    # ------------------------------------------------------------------
    def fitted(self, model: Any) -> None:
        """Called after every ``fit``: queue or check the model's spend."""
        config = getattr(model, "config", None)
        target = getattr(config, "epsilon", None)
        if getattr(model, "accountant", None) is None or target is None:
            return
        if self.defer:
            self._pending.append((model, float(target)))
            return
        problem = self.privacy_problem(model, float(target))
        if problem is not None:
            raise PrivacyGateError(problem)

    def drain(self) -> List[str]:
        """Check every queued fit; returns the problems found."""
        pending, self._pending = self._pending, []
        problems = [self.privacy_problem(model, target) for model, target in pending]
        return [p for p in problems if p is not None]

    def privacy_problem(self, model: Any, target_epsilon: float) -> Optional[str]:
        """``None`` when the fit stayed within ``target_epsilon``, else why not."""
        pause = self.tracer.paused() if self.tracer is not None else nullcontext()
        with pause:
            spent = model.privacy_spent()
        self.dp_fits += 1
        limit = target_epsilon * (1.0 + _EPS_RTOL)
        if spent.epsilon <= limit:
            return None
        self.overshoot_fits += 1
        accountant = model.accountant
        last = accountant.__dict__.get(_LAST_STEP)
        if last is None:
            return (
                f"epsilon spent {spent.epsilon!r} > target {target_epsilon!r} "
                "and no accountant step was recorded"
            )
        rate, num_steps = last
        curve = self._curve(accountant.noise_multiplier, rate, accountant.orders)
        rdp = accountant.rdp
        before = {order: rdp[order] - num_steps * curve[order] for order in accountant.orders}
        from repro.privacy.composition import rdp_to_dp

        eps_before, _ = rdp_to_dp(before, spent.delta, accountant.orders)
        if eps_before <= limit:
            return None
        return (
            f"epsilon spent {spent.epsilon!r} > target {target_epsilon!r}, "
            f"and {eps_before!r} before the last step: trained past the budget"
        )

    def _curve(self, sigma: float, rate: float, orders: Tuple[int, ...]) -> Dict[int, float]:
        # The accountant charges the per-step curve of the rate rounded to 12
        # digits; recompute that same curve (cached: rates repeat per graph).
        from repro.privacy.subsampling import subsampled_gaussian_rdp

        key = (float(sigma), round(float(rate), 12), tuple(orders))
        curve = self._curves.get(key)
        if curve is None:
            curve = {o: subsampled_gaussian_rdp(o, key[1], key[0]) for o in orders}
            self._curves[key] = curve
        return curve

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    def row_problem(self, cell_id: str, row: Dict[str, Any]) -> Optional[str]:
        """Utility-range and (when active) digest problems of one row."""
        problem = utility_problem(row)
        if problem is not None:
            return problem
        if self.digests is not None:
            expected = self.digests.get(cell_id)
            if expected is None:
                return "no digest recorded for this cell"
            if row_digest(row) != expected:
                return "row digest differs from the recorded one"
        return None


def install(gate: Gate, patcher) -> None:
    """Wrap ``make_model`` and ``RdpAccountant.step`` for ``gate``.

    ``patcher`` is a :class:`perfbench.tracing.Patcher`; the wrappers stay
    until it is restored.  They cost one attribute store per accountant
    step and one call per fit, so they stay on in untraced runs too.
    """
    from repro.api import registry
    from repro.experiments import runners
    from repro.privacy.accountant import RdpAccountant

    def wrap_step(step):
        def step_recorder(self, sampling_rate, num_steps=1):
            step(self, sampling_rate, num_steps)
            if num_steps and sampling_rate:
                self.__dict__[_LAST_STEP] = (sampling_rate, num_steps)

        return step_recorder

    def wrap_make_model(make_model):
        def gated_make_model(*args, **kwargs):
            model = make_model(*args, **kwargs)
            fit = model.fit

            def gated_fit(*fit_args, **fit_kwargs):
                out = fit(*fit_args, **fit_kwargs)
                gate.fitted(model)
                return out

            model.fit = gated_fit
            return model

        return gated_make_model

    patcher.wrap(RdpAccountant, "step", wrap_step)
    patcher.wrap(registry, "make_model", wrap_make_model)
    patcher.wrap(runners, "make_model", wrap_make_model)
