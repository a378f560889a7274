"""Registry of prunable entities: sparsity statistics and cost accounting.

A model declares each gate once (``GateDecl``): the reporting group, the
dense MACs of one component, how component ``i`` is named, and the parameter
slices the gate owns and the ones that depend on it.  A slice is a (param
name, membership mode) pair.  The modes are ``gate``'s (``AXIS0``,
``AXIS1``, ``WHOLE``, ``ELEMENTWISE``), and ``gate.broadcast_mask`` maps
components to entries here just as it does in ``apply_gate``.  Owned slices
come in two kinds: ``decayed`` ones also carry the masked-l2 term, the other
``owned`` ones (batch-norm affine) do not.
Component ``i`` of a gate is one prunable entity.

Each snapshot computes every gate's hard mask once and works on those arrays:

- parameter accounting marks a boolean "dead" grid over every weight array.
  A masked component kills its owned slices plus the dependent ones downstream
  (a pruned filter also kills the next layer's matching input channel), so
  overlaps count once and active + pruned = total holds at every snapshot.
  Gate scaling factors are bookkeeping state, not network weights, and are
  excluded from the counts;
- FLOPs come from the same grid.  The model's cost table gives the FLOPs
  each live entry of a weight array stands for, plus a fixed count no mask
  removes: live FLOPs = fixed + sum over costed arrays of (size - dead
  entries) x cost, and total FLOPs is that sum with nothing dead;
- rejuvenation events come from diffing each gate's mask with the previous
  snapshot's, in gate-then-component order.

FLOPs convention (documented, not taken from anywhere): one multiply-
accumulate = 2 FLOPs; batch norm costs 2 FLOPs per output element, ReLU and
residual adds 1; the gate multiply itself is foldable and costs nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .gate import GateParam, broadcast_mask

REPORT_VERSION = 1

# one owned or dependent parameter slice: (param name, membership mode)
Slice = tuple[str, str]


@dataclass(frozen=True)
class GateDecl:
    """One gate: every component shares group, cost and slices (each in one field)."""

    gate: GateParam
    group: str                         # reporting bucket (layer name)
    macs: int                          # dense per-application MACs of one component
    name: Callable[[int], str]         # entity id of component i
    owned: tuple[Slice, ...] = ()      # owned, outside the l2 term (batch-norm affine)
    deps: tuple[Slice, ...] = ()       # next layer's inputs that read the component
    decayed: tuple[Slice, ...] = ()    # owned and under the masked-l2 term, in l2 order


class EntityRecord(NamedTuple):
    """One prunable entity and the static cost attributed to it."""

    entity_id: str
    group: str
    macs: int                          # dense per-application MAC cost


@dataclass
class PruneReport:
    step: int
    active: dict[str, bool]
    active_entities: int
    K: int
    pruned_ratio: float
    total_params: int
    pruned_params: int
    pruned_params_fraction: float
    total_flops: int
    live_flops: int
    pruned_flops_fraction: float
    per_group: dict[str, tuple[int, int]]            # group -> (active, total)
    events: list[tuple[int, str, str]]               # (step, entity_id, "1->0"|"0->1")

    def to_text(self) -> str:
        lines = [
            f"maskprune prune report v{REPORT_VERSION}",
            f"step: {self.step}",
            f"entities: {self.active_entities} active / {self.K} total",
            f"pruned ratio x100: {100.0 * self.pruned_ratio:.2f}",
            f"params: {self.pruned_params} pruned / {self.total_params} total "
            f"(fraction {self.pruned_params_fraction:.6f})",
            f"flops: {self.total_flops - self.live_flops} pruned / {self.total_flops} "
            f"total (fraction {self.pruned_flops_fraction:.6f})",
            "per-group:",
        ]
        for group, (act, tot) in self.per_group.items():
            lines.append(f"  {group}: {act}/{tot} active")
        lines.append(f"rejuvenation events: {len(self.events)}")
        for step, eid, direction in self.events:
            lines.append(f"  step {step}: {eid} {direction}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {k: v for k, v in vars(self).items() if k != "active"}
        return json.dumps(dict(payload, report_version=REPORT_VERSION), sort_keys=True)


def conv_macs(m: int, n: int, k: int, out_h: int, out_w: int) -> int:
    """Multiply-accumulates of one conv application (m filters, n in-channels)."""
    return m * n * k * k * out_h * out_w


class PruneManager:
    """Tracks every prunable entity of one model across training.

    The model contract: ``params()`` (name -> array), ``gates()``,
    ``gate_decls()`` (one GateDecl per gate, each gate exactly once) and
    ``flop_costs()`` (weight name -> FLOPs per live entry, and the fixed FLOPs).
    """

    def __init__(self, model):
        self.model = model
        self.decls: list[GateDecl] = list(model.gate_decls())
        gate_ids = [id(d.gate) for d in self.decls]
        if len(set(gate_ids)) != len(gate_ids):
            raise ValueError("a gate is declared twice")
        if set(gate_ids) != {id(g) for g in model.gates()}:
            raise ValueError("gate declarations do not cover the model's gates exactly")
        if len({d.gate.name for d in self.decls}) != len(self.decls):
            raise ValueError("gate names are not unique")
        params = model.params()
        weights = {n: p for n, p in params.items() if not n.endswith(".alpha")}
        for d in self.decls:
            slices = d.decayed + d.owned + d.deps
            if len(set(slices)) != len(slices):
                raise ValueError(f"gate {d.gate.name!r}: a slice is declared twice")
            for name, mode in slices:
                if name not in weights:
                    raise ValueError(f"gate {d.gate.name!r}: unknown weight {name!r}")
                broadcast_mask(np.ones(d.gate.dim, dtype=bool), weights[name].shape, mode)
        self._costs, fixed = model.flop_costs()
        unknown = set(self._costs) - set(weights)
        if unknown:
            raise ValueError(f"FLOPs cost for unknown weights {sorted(unknown)}")
        self._ids = [d.name(i) for d in self.decls for i in range(d.gate.dim)]
        if len(set(self._ids)) != len(self._ids):
            raise ValueError("duplicate entity id")
        self._offsets = np.cumsum([0] + [d.gate.dim for d in self.decls]).tolist()
        self._total_params = int(sum(p.size for p in weights.values()))
        self._total_flops = fixed + sum(weights[n].size * c for n, c in self._costs.items())
        self._last = [np.ones(d.gate.dim, dtype=bool) for d in self.decls]
        self._records: list[EntityRecord] | None = None
        self.events: list[tuple[int, str, str]] = []

    @property
    def K(self) -> int:
        return len(self._ids)

    @property
    def records(self) -> list[EntityRecord]:
        """One record per entity, in declaration order; built on first use."""
        if self._records is None:
            self._records = [
                EntityRecord(self._ids[off + i], d.group, d.macs)
                for d, off in zip(self.decls, self._offsets) for i in range(d.gate.dim)]
        return self._records

    def _masks(self) -> list[np.ndarray]:
        return [d.gate.mask() > 0 for d in self.decls]

    def _active(self, masks: list[np.ndarray]) -> dict[str, bool]:
        return dict(zip(self._ids, np.concatenate(masks).tolist() if masks else []))

    def active_flags(self) -> dict[str, bool]:
        return self._active(self._masks())

    def snapshot(self, step: int = 0) -> PruneReport:
        """Recompute masks, account params/FLOPs, log mask flips since last call."""
        params = self.model.params()
        masks = self._masks()

        for off, was, now in zip(self._offsets, self._last, masks):
            flips = np.flatnonzero(was != now)
            self.events += [(step, self._ids[off + i], "0->1" if up else "1->0")
                            for i, up in zip(flips.tolist(), now[flips].tolist())]
        self._last = masks

        dead: dict[str, np.ndarray] = {}
        for d, m in zip(self.decls, masks):
            if m.all():
                continue
            off = ~m
            for name, mode in d.decayed + d.owned + d.deps:
                grid = dead.get(name)
                if grid is None:
                    grid = dead[name] = np.zeros(params[name].shape, dtype=bool)
                grid |= broadcast_mask(off, grid.shape, mode)
        n_dead = {name: int(g.sum()) for name, g in dead.items()}
        pruned_params = sum(n_dead.values())
        live_flops = self._total_flops - sum(n * self._costs.get(name, 0)
                                             for name, n in n_dead.items())

        counts = [int(m.sum()) for m in masks]
        n_active = sum(counts)

        per_group: dict[str, list[int]] = {}
        for d, c in zip(self.decls, counts):
            bucket = per_group.setdefault(d.group, [0, 0])
            bucket[0] += c
            bucket[1] += d.gate.dim

        return PruneReport(
            step=step,
            active=self._active(masks),
            active_entities=n_active,
            K=self.K,
            pruned_ratio=1.0 - n_active / self.K if self.K else 0.0,
            total_params=self._total_params,
            pruned_params=pruned_params,
            pruned_params_fraction=pruned_params / self._total_params
            if self._total_params else 0.0,
            total_flops=self._total_flops,
            live_flops=live_flops,
            pruned_flops_fraction=1.0 - live_flops / self._total_flops
            if self._total_flops else 0.0,
            per_group={k: (v[0], v[1]) for k, v in per_group.items()},
            events=list(self.events),
        )


def replay_events(entity_ids: Sequence[str],
                  events: Sequence[tuple[int, str, str]]) -> dict[str, bool]:
    """Apply an event log to the initial all-active state."""
    state = {eid: True for eid in entity_ids}
    for _, eid, direction in events:
        state[eid] = direction == "0->1"
    return state
