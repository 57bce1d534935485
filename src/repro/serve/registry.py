"""The catalogue of campaigns a tenant may submit by name.

The service never accepts code over the wire — a submission names one of
the entries below and supplies builder options, which are validated
against a typed, bounded :class:`OptionSpec` list before
:func:`repro.sched.campaigns.build_campaign` ever sees them.  The
defaults and bounds keep a shared service healthy: the demo campaign is
capped at 256 points, chaos at a 64-case budget, and the Table 1 /
Section 8 suites run their stock grids (no tenant-supplied sizes — those
are the expensive, curated reproduction runs).

:func:`default_registry` builds the registry over
:data:`repro.sched.campaigns.CAMPAIGNS`; a test can pass the service a
trimmed registry to keep fixtures fast.

Each entry builds a campaign once per set of validated options and hands
every later submission with the same options that same, read-only
:class:`~repro.sched.campaign.Campaign` (see :meth:`CampaignEntry.build`).
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.sched.campaign import Campaign
from repro.sched.campaigns import build_campaign
from repro.serve.contracts import ContractError

__all__ = ["OptionSpec", "CampaignEntry", "default_registry"]

#: Campaigns one :class:`CampaignEntry` keeps built, one per set of
#: validated options; the oldest-inserted is evicted first.
MEMO_ENTRIES = 16


@dataclass(frozen=True)
class OptionSpec:
    """One typed, bounded builder option.

    ``kind`` is ``"int"`` or ``"float"``; bounds are inclusive and
    ``None`` means unbounded on that side.  Validation coerces JSON
    numbers (an ``int`` is accepted where a ``float`` is declared, never
    the reverse) and raises :class:`ContractError` (``"bad_option"``) on
    anything else, a NaN or an infinite float included.
    """

    name: str
    kind: str
    default: Any
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    help: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("int", "float"):
            raise ValueError(f"option kind must be 'int' or 'float', got {self.kind!r}")

    def validate(self, value: Any) -> Any:
        if self.kind == "int":
            if not isinstance(value, int) or isinstance(value, bool):
                raise ContractError(
                    "bad_option",
                    f"option {self.name!r} must be an integer, got {value!r}",
                )
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ContractError(
                    "bad_option",
                    f"option {self.name!r} must be a number, got {value!r}",
                )
            try:
                value = float(value)
            except OverflowError:  # an int beyond the float range
                value = math.inf
            if not math.isfinite(value):
                raise ContractError(
                    "bad_option",
                    f"option {self.name!r} must be a finite number, got {value}",
                )
        if self.minimum is not None and value < self.minimum:
            raise ContractError(
                "bad_option",
                f"option {self.name!r} must be >= {self.minimum}, got {value}",
            )
        if self.maximum is not None and value > self.maximum:
            raise ContractError(
                "bad_option",
                f"option {self.name!r} must be <= {self.maximum}, got {value}",
            )
        return value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "default": self.default,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "help": self.help,
        }


@dataclass(frozen=True)
class CampaignEntry:
    """One submittable campaign: a name, a summary, and its options."""

    name: str
    summary: str
    options: Tuple[OptionSpec, ...] = ()
    #: canonical JSON of validated options -> the campaign built for them.
    _memo: Dict[str, Campaign] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _memo_lock: Any = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def build(self, options: Mapping[str, Any]) -> Campaign:
        """Validate ``options`` and return their campaign graph.

        The graph is built once per set of validated options and kept in
        this entry's memo (:data:`MEMO_ENTRIES` of them, oldest evicted
        first), so every submission with the same options shares one
        read-only campaign and its content keys.  The memo is keyed by the
        options' canonical JSON, never by value: ``0.0`` and ``-0.0``
        compare equal but give different content keys, while ``0`` and
        ``0.0`` for a float option validate to the same ``0.0``.  A lookup
        is one atomic dict read; filling and eviction hold a lock, since
        HTTP handler threads build concurrently.
        """
        known = {spec.name: spec for spec in self.options}
        unknown = sorted(set(options) - set(known))
        if unknown:
            allowed = ", ".join(sorted(known)) or "(none)"
            raise ContractError(
                "bad_option",
                f"campaign {self.name!r} has no option(s) {', '.join(unknown)}; "
                f"allowed: {allowed}",
            )
        kwargs = {
            name: spec.validate(options[name])
            for name, spec in known.items()
            if name in options
        }
        memo_key = json.dumps(kwargs, sort_keys=True)
        campaign = self._memo.get(memo_key)
        if campaign is None:
            built = build_campaign(self.name, **kwargs)
            with self._memo_lock:
                campaign = self._memo.setdefault(memo_key, built)
                while len(self._memo) > MEMO_ENTRIES:
                    del self._memo[next(iter(self._memo))]
        return campaign

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "summary": self.summary,
            "options": [spec.to_dict() for spec in self.options],
        }


def default_registry() -> Dict[str, CampaignEntry]:
    """The shipped catalogue over :data:`repro.sched.campaigns.CAMPAIGNS`."""
    entries = [
        CampaignEntry(
            "demo",
            "fan-out/fan-in demo graph: N simulated points plus a summary task",
            (
                OptionSpec("points", "int", 8, minimum=1, maximum=256,
                           help="number of fan-out points"),
                OptionSpec("delay", "float", 0.05, minimum=0.0, maximum=2.0,
                           help="per-point simulated latency (seconds)"),
            ),
        ),
        CampaignEntry(
            "table1",
            "the four Table 1 benchmark drivers at their stock grid",
        ),
        CampaignEntry(
            "section8",
            "the Section 8 experiment suite at its stock grid",
        ),
        CampaignEntry(
            "cross_model",
            "the cross-model table: each problem on all 7 cost models "
            "(QSM, s-QSM, QSM(g,d), BSP, PRAM, MPC, PEM) at the stock grid",
        ),
        CampaignEntry(
            "chaos",
            "the robustness gate: algorithms under adversarial policies",
            (
                OptionSpec("n", "int", 64, minimum=8, maximum=512,
                           help="problem size per case"),
                OptionSpec("seed", "int", 0, help="base RNG seed"),
                OptionSpec("budget", "int", 24, minimum=1, maximum=64,
                           help="number of chaos cases"),
                OptionSpec("max_attempts", "int", 3, minimum=1, maximum=10,
                           help="retries per case"),
            ),
        ),
    ]
    return {entry.name: entry for entry in entries}
