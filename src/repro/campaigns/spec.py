"""Declarative fault-injection campaign specifications.

A :class:`CampaignSpec` names a full experimental grid — ``models x tasks x
injection sites x error models x methods x voltages x seeds`` — and expands
it into an ordered list of hashable :class:`Trial`\\ s. Every trial carries a
stable content key (SHA-256 of its canonical JSON form), which is what the
result store uses for dedup and crash resume: re-running a campaign skips
every trial whose key is already on disk.

Specs round-trip through JSON so campaigns can live in version control and
be launched from the CLI (``python -m repro campaign run --spec grid.json``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.campaigns.stopping import StoppingPolicy
from repro.campaigns.supervise import SuperviseConfig
from repro.dispatch.cost import CostSpec
from repro.errors.models import BitFlipModel, ErrorModel, MagFreqModel
from repro.errors.sites import Component, SiteFilter, Stage

#: Method key meaning "inject but do not protect" (distinct from the Fig. 9
#: "no-protection" baseline only in that it skips the method registry).
NO_METHOD = "none"


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class SiteSpec:
    """JSON-able, hashable mirror of :class:`~repro.errors.sites.SiteFilter`."""

    layers: Optional[tuple[int, ...]] = None
    components: Optional[tuple[str, ...]] = None
    stages: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.components is not None:
            for c in self.components:
                Component(c)  # raises ValueError on unknown labels
        if self.stages is not None:
            for s in self.stages:
                Stage(s)
        # Canonicalize every axis so the same logical site always hashes to
        # the same trial key, however it was constructed. Layers must end up
        # as real ints — a string "0" from JSON would match no GemmSite.
        if self.layers is not None:
            object.__setattr__(self, "layers", tuple(sorted(int(x) for x in self.layers)))
        for name in ("components", "stages"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, tuple(sorted(value)))

    @classmethod
    def everywhere(cls) -> "SiteSpec":
        return cls()

    @classmethod
    def only(
        cls,
        layers: Optional[Sequence[int]] = None,
        components: Optional[Sequence[Component | str]] = None,
        stages: Optional[Sequence[Stage | str]] = None,
    ) -> "SiteSpec":
        return cls(
            layers=tuple(layers) if layers is not None else None,
            components=tuple(
                c.value if isinstance(c, Component) else str(c) for c in components
            )
            if components is not None
            else None,
            stages=tuple(s.value if isinstance(s, Stage) else str(s) for s in stages)
            if stages is not None
            else None,
        )

    @classmethod
    def from_filter(cls, site_filter: Optional[SiteFilter]) -> "SiteSpec":
        if site_filter is None:
            return cls()
        return cls.only(
            layers=sorted(site_filter.layers) if site_filter.layers is not None else None,
            components=sorted(site_filter.components, key=lambda c: c.value)
            if site_filter.components is not None
            else None,
            stages=sorted(site_filter.stages, key=lambda s: s.value)
            if site_filter.stages is not None
            else None,
        )

    def to_filter(self) -> SiteFilter:
        return SiteFilter.only(
            layers=self.layers,
            components=[Component(c) for c in self.components]
            if self.components is not None
            else None,
            stages=[Stage(s) for s in self.stages] if self.stages is not None else None,
        )

    @property
    def label(self) -> str:
        parts = []
        if self.components is not None:
            parts.append("+".join(self.components))
        if self.layers is not None:
            parts.append("L" + ",".join(str(x) for x in self.layers))
        if self.stages is not None:
            parts.append("+".join(self.stages))
        return "/".join(parts) if parts else "everywhere"

    def to_dict(self) -> dict:
        out: dict = {}
        if self.layers is not None:
            out["layers"] = list(self.layers)
        if self.components is not None:
            out["components"] = list(self.components)
        if self.stages is not None:
            out["stages"] = list(self.stages)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "SiteSpec":
        return cls.only(
            layers=payload.get("layers"),
            components=payload.get("components"),
            stages=payload.get("stages"),
        )


@dataclass(frozen=True)
class ErrorSpec:
    """One error model of the grid: a BER'd bit-flip or a mag/freq cell.

    ``ber=None`` on a bitflip spec means "derive the BER from the trial's
    voltage" via :class:`~repro.circuits.voltage.VoltageBerModel`; such specs
    are only valid in campaigns that sweep voltages.
    """

    kind: str  # "bitflip" | "magfreq" | "clean"
    ber: Optional[float] = None
    bits: Optional[tuple[int, ...]] = None
    mag: Optional[int] = None
    freq: Optional[int] = None
    sign: int = 1

    def __post_init__(self) -> None:
        # Mirror the runtime error models' constraints so a bad spec fails
        # at load time, not per-trial inside the workers.
        if self.kind not in ("bitflip", "magfreq", "clean"):
            raise ValueError(f"unknown error kind {self.kind!r}")
        if self.kind == "magfreq":
            if self.mag is None or self.freq is None:
                raise ValueError("magfreq errors need mag and freq")
            if self.mag < 0 or self.freq < 0:
                raise ValueError("mag and freq must be non-negative")
        if self.kind == "bitflip" and self.ber is not None and not 0 <= self.ber <= 1:
            raise ValueError(f"ber must be in [0, 1], got {self.ber}")
        if self.bits is not None and any(not 0 <= b < 32 for b in self.bits):
            raise ValueError(f"bit positions must be in [0, 32): {self.bits}")
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0, or +1")
        # Stray cross-kind fields would silently alter the trial key (and the
        # CSV columns) without changing what gets injected.
        if self.kind != "bitflip" and (self.ber is not None or self.bits is not None):
            raise ValueError(f"ber/bits are bitflip-only fields (kind={self.kind!r})")
        if self.kind != "magfreq" and (self.mag is not None or self.freq is not None):
            raise ValueError(f"mag/freq are magfreq-only fields (kind={self.kind!r})")

    @classmethod
    def bitflip(
        cls, ber: Optional[float], bits: Optional[Sequence[int]] = None
    ) -> "ErrorSpec":
        return cls(kind="bitflip", ber=ber, bits=tuple(bits) if bits else None)

    @classmethod
    def magfreq(cls, mag: int, freq: int, sign: int = 1) -> "ErrorSpec":
        return cls(kind="magfreq", mag=mag, freq=freq, sign=sign)

    @classmethod
    def clean(cls) -> "ErrorSpec":
        return cls(kind="clean")

    def build(self, ber: Optional[float] = None) -> Optional[ErrorModel]:
        """Instantiate the runtime error model (``ber`` overrides ``self.ber``)."""
        if self.kind == "clean":
            return None
        if self.kind == "bitflip":
            effective = self.ber if ber is None else ber
            if effective is None:
                raise ValueError("bitflip spec has no BER and no voltage provided one")
            if self.bits:
                return BitFlipModel(effective, bits=self.bits)
            return BitFlipModel(effective)
        return MagFreqModel(mag=int(self.mag), freq=int(self.freq), sign=self.sign)

    @property
    def label(self) -> str:
        if self.kind == "clean":
            return "clean"
        if self.kind == "bitflip":
            ber = "V" if self.ber is None else f"{self.ber:g}"
            bits = f"@b{','.join(str(b) for b in self.bits)}" if self.bits else ""
            return f"bitflip:{ber}{bits}"
        sign = "" if self.sign == 1 else f"@s{self.sign}"
        return f"magfreq:{self.mag}x{self.freq}{sign}"

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.ber is not None:
            out["ber"] = self.ber
        if self.bits is not None:
            out["bits"] = list(self.bits)
        if self.mag is not None:
            out["mag"] = self.mag
        if self.freq is not None:
            out["freq"] = self.freq
        if self.sign != 1:
            out["sign"] = self.sign
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "ErrorSpec":
        bits = payload.get("bits")
        return cls(
            kind=payload["kind"],
            ber=payload.get("ber"),
            bits=tuple(bits) if bits else None,
            mag=payload.get("mag"),
            freq=payload.get("freq"),
            sign=payload.get("sign", 1),
        )


@dataclass(frozen=True)
class Trial:
    """One fully-specified cell-and-seed of the campaign grid."""

    model: str
    task: str
    site: SiteSpec
    error: ErrorSpec
    method: str = NO_METHOD
    voltage: Optional[float] = None
    seed: int = 0

    def to_dict(self) -> dict:
        out: dict = {
            "model": self.model,
            "task": self.task,
            "site": self.site.to_dict(),
            "error": self.error.to_dict(),
            "method": self.method,
            "seed": self.seed,
        }
        if self.voltage is not None:
            out["voltage"] = self.voltage
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "Trial":
        return cls(
            model=payload["model"],
            task=payload["task"],
            site=SiteSpec.from_dict(payload.get("site", {})),
            error=ErrorSpec.from_dict(payload["error"]),
            method=payload.get("method", NO_METHOD),
            voltage=payload.get("voltage"),
            seed=payload.get("seed", 0),
        )

    @property
    def key(self) -> str:
        """Stable content key used by the result store for dedup/resume."""
        digest = hashlib.sha256(_canonical(self.to_dict()).encode("utf-8"))
        return digest.hexdigest()[:16]

    def cell_dict(self) -> dict:
        """The trial's identity minus the seed — the Monte-Carlo cell."""
        payload = self.to_dict()
        payload.pop("seed")
        return payload

    @property
    def cell_id(self) -> str:
        digest = hashlib.sha256(_canonical(self.cell_dict()).encode("utf-8"))
        return digest.hexdigest()[:16]

    @property
    def cell_label(self) -> str:
        parts = [self.model, self.task, self.site.label, self.error.label]
        if self.method != NO_METHOD:
            parts.append(self.method)
        if self.voltage is not None:
            parts.append(f"{self.voltage:.2f}V")
        return "/".join(parts)


@dataclass(frozen=True)
class CampaignSpec:
    """A full campaign grid plus its Monte-Carlo policy.

    ``cost`` (a :class:`~repro.dispatch.cost.CostSpec`, or ``"cost": true``
    in JSON) attaches a hardware cost instrument to every trial, storing
    measured systolic cycles, recovered MACs, and energy per cell. It is a
    *measurement* setting, shared by the whole grid and deliberately **not**
    part of any trial's content key — toggling it never invalidates stored
    results, it only determines whether new trials carry cost columns.

    ``backend`` names the GEMM backend every trial runs on (DESIGN.md
    section 11; default: the workers' own resolution, i.e.
    ``$REPRO_GEMM_BACKEND`` or ``numpy-f64``). Like ``cost`` it is an
    execution setting: every registered backend is exact, so trial keys
    are unchanged and stored results stay valid whichever one ran.

    ``supervise`` (a :class:`~repro.campaigns.supervise.SuperviseConfig`,
    or a ``"supervise"`` object in JSON) tunes the supervision layer —
    lease deadlines, trial retries, pack requeues (DESIGN.md section 12).
    Like ``cost`` it is an execution setting, never part of trial keys.
    """

    name: str
    models: tuple[str, ...]
    tasks: tuple[str, ...] = ("perplexity",)
    sites: tuple[SiteSpec, ...] = (SiteSpec(),)
    errors: tuple[ErrorSpec, ...] = (ErrorSpec.bitflip(1e-3),)
    methods: tuple[str, ...] = (NO_METHOD,)
    voltages: tuple[Optional[float], ...] = (None,)
    seeds: tuple[int, ...] = (0,)
    stopping: Optional[StoppingPolicy] = None
    cost: Optional[CostSpec] = None
    backend: Optional[str] = None
    supervise: Optional[SuperviseConfig] = None

    def __post_init__(self) -> None:
        # Deferred: the registries live in higher layers (characterization,
        # core) that themselves depend on this leaf module via the sweeps.
        from repro.characterization.evaluator import TASKS
        from repro.core.methods import METHODS
        from repro.dispatch.backends import get_backend
        from repro.training.zoo import ZOO_SPECS

        if self.backend is not None:
            get_backend(self.backend)  # raises KeyError on unknown names

        if not self.name:
            raise ValueError("campaign needs a name")
        for axis in ("models", "tasks", "sites", "errors", "methods", "voltages", "seeds"):
            if not getattr(self, axis):
                raise ValueError(f"campaign axis {axis!r} is empty — nothing to run")
        for model in self.models:
            if model not in ZOO_SPECS:
                raise KeyError(f"unknown zoo model {model!r}; available: {sorted(ZOO_SPECS)}")
        for task in self.tasks:
            if task not in TASKS:
                raise KeyError(f"unknown task {task!r}; available: {sorted(TASKS)}")
        for method in self.methods:
            if method != NO_METHOD and method not in METHODS:
                raise KeyError(
                    f"unknown method {method!r}; available: {sorted(METHODS)} or {NO_METHOD!r}"
                )
        has_voltage = any(v is not None for v in self.voltages)
        if has_voltage:
            # A voltage derives the injected BER, so it only composes with
            # BER-less bit-flip errors — anything else would be silently
            # overridden or mislabeled in reports.
            if any(v is None for v in self.voltages):
                raise ValueError("voltage axis mixes None with real voltages")
            for error in self.errors:
                if error.kind != "bitflip" or error.ber is not None:
                    raise ValueError(
                        "a voltage axis requires all errors to be BER-less "
                        f"bitflip specs (got {error.label})"
                    )
        else:
            for error in self.errors:
                if error.kind == "bitflip" and error.ber is None:
                    raise ValueError(
                        "bitflip spec without a BER requires a voltage axis to derive it"
                    )

    # ----------------------------------------------------------- expansion
    def expand(self) -> list[Trial]:
        """The full trial list, in deterministic grid order (seed innermost).

        Repeated axis values (e.g. a duplicated seed in a hand-written JSON
        spec) are dropped: every returned trial has a unique key.
        """
        seen: set[str] = set()
        trials: list[Trial] = []
        for model in self.models:
            for task in self.tasks:
                for site in self.sites:
                    for error in self.errors:
                        for method in self.methods:
                            for voltage in self.voltages:
                                for seed in self.seeds:
                                    trial = Trial(
                                        model=model,
                                        task=task,
                                        site=site,
                                        error=error,
                                        method=method,
                                        voltage=voltage,
                                        seed=seed,
                                    )
                                    if trial.key not in seen:
                                        seen.add(trial.key)
                                        trials.append(trial)
        return trials

    @property
    def n_trials(self) -> int:
        return len(self.expand())

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "models": list(self.models),
            "tasks": list(self.tasks),
            "sites": [s.to_dict() for s in self.sites],
            "errors": [e.to_dict() for e in self.errors],
            "methods": list(self.methods),
            "voltages": list(self.voltages),
            "seeds": list(self.seeds),
        }
        if self.stopping is not None:
            out["stopping"] = self.stopping.to_dict()
        if self.cost is not None:
            out["cost"] = self.cost.to_dict()
        if self.backend is not None:
            out["backend"] = self.backend
        if self.supervise is not None:
            out["supervise"] = self.supervise.to_dict()
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSpec":
        """Build a spec from JSON data, with grid-building conveniences:

        - ``"seeds": 5`` expands to seeds 0..4;
        - ``"bers": [...]`` (+ optional ``"bits"``) appends bit-flip errors;
        - ``"magfreq": {"mags": [...], "freqs": [...]}`` appends the product
          grid of mag/freq errors;
        - ``"components": [...]`` (+ optional ``"stages"``) appends
          one-component sites.

        Unknown keys are rejected so a typo'd axis name cannot silently
        fall back to a default grid.
        """
        known = {
            "name", "models", "tasks", "sites", "errors", "methods",
            "voltages", "seeds", "stopping", "cost", "backend", "supervise",
            "bers", "bits", "magfreq", "components", "stages",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown campaign spec keys: {sorted(unknown)} (known: {sorted(known)})"
            )
        if "bits" in payload and "bers" not in payload:
            raise ValueError('"bits" is only consumed by the "bers" convenience')
        if "stages" in payload and "components" not in payload:
            raise ValueError('"stages" is only consumed by the "components" convenience')
        errors = [ErrorSpec.from_dict(e) for e in payload.get("errors", [])]
        bits = payload.get("bits")
        for ber in payload.get("bers", []):
            errors.append(ErrorSpec.bitflip(float(ber), bits=bits))
        magfreq = payload.get("magfreq")
        if magfreq:
            for mag in magfreq["mags"]:
                for freq in magfreq["freqs"]:
                    errors.append(
                        ErrorSpec.magfreq(int(mag), int(freq), magfreq.get("sign", 1))
                    )
        sites = [SiteSpec.from_dict(s) for s in payload.get("sites", [])]
        stages = payload.get("stages")
        for component in payload.get("components", []):
            sites.append(SiteSpec.only(components=[component], stages=stages))
        seeds = payload.get("seeds", [0])
        if isinstance(seeds, int):
            seeds = list(range(seeds))
        stopping = payload.get("stopping")
        # Truthiness would silently read "cost": {} (enable with all
        # defaults) as "off"; only an absent key, null, or false disables.
        cost = payload.get("cost")
        cost = None if cost is False else cost
        return cls(
            name=payload["name"],
            models=tuple(payload["models"]),
            tasks=tuple(payload.get("tasks", ["perplexity"])),
            sites=tuple(sites) if sites else (SiteSpec(),),
            errors=tuple(errors) if errors else (ErrorSpec.bitflip(1e-3),),
            methods=tuple(payload.get("methods", [NO_METHOD])),
            voltages=tuple(payload.get("voltages", [None])),
            seeds=tuple(seeds),
            stopping=StoppingPolicy.from_dict(stopping) if stopping else None,
            cost=CostSpec.from_dict(cost) if cost is not None else None,
            backend=payload.get("backend"),
            supervise=(
                SuperviseConfig.from_dict(payload["supervise"])
                if payload.get("supervise") is not None
                else None
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))


def example_spec() -> CampaignSpec:
    """The quickstart campaign: 2 components x 3 BERs x 3 seeds on opt-mini."""
    return CampaignSpec(
        name="example-q13",
        models=("opt-mini",),
        tasks=("perplexity",),
        sites=(
            SiteSpec.only(components=["O"], stages=["prefill"]),
            SiteSpec.only(components=["K"], stages=["prefill"]),
        ),
        errors=tuple(ErrorSpec.bitflip(b, bits=(30,)) for b in (1e-4, 1e-3, 1e-2)),
        seeds=(0, 1, 2),
        stopping=None,
    )
