"""Deterministic seeded fault injection into the campaign harness itself.

The supervision layer (:mod:`repro.campaigns.supervise`, DESIGN.md section
12) claims to survive worker SIGKILLs, hangs past the lease deadline,
transient trial exceptions, shared-memory attach failures, and torn result
log lines. This module is how we prove it: a :class:`ChaosSpec` names a
seed plus per-fault-kind firing rates, and every decision is a pure hash of
``(seed, kind, site key)`` — so a chaos run is exactly reproducible across
processes, start methods, and retries, and the test suite can *predict*
which sites fire without running anything.

The discipline that makes chaos-ridden campaigns bit-identical to
fault-free ones: every fault except ``poison`` fires **only on the first
attempt** of its site (the parent stamps attempt counters into the work
payloads). The retry/requeue machinery then re-executes the site cleanly,
and the final store contents match the undisturbed run. ``poison`` fires on
*every* attempt — it models a deterministically-broken trial and exists to
exercise the quarantine path.

Activation: pass a :class:`ChaosSpec` to ``run_campaign(chaos=...)``, use
``campaign run --chaos "seed=1,kill=0.5,exc=0.5"``, or set the same compact
string (or its JSON form) in ``$REPRO_CHAOS``. The spec rides the work
payloads into pool workers, so it reaches spawn-started processes too.

Process-wide kills and hangs are gated on :data:`WORKER_INDEX` being set
(i.e. on running inside a supervised pool worker): chaos must never SIGKILL
the campaign parent or stall the serial executor, which has no supervisor
to rescue it.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass, fields
from typing import Optional

from repro.utils.logging import get_logger

logger = get_logger("campaigns.chaos")

#: Set by the supervised pool's worker bootstrap; ``None`` in the campaign
#: parent and in serial execution. Worker-fatal faults (kill, hang) and the
#: shm attach fault key off it.
WORKER_INDEX: Optional[int] = None


class ChaosError(RuntimeError):
    """Base class for faults the chaos harness raises on purpose."""


class ChaosTrialError(ChaosError):
    """Injected transient trial failure (first attempt only)."""


class ChaosPoisonError(ChaosError):
    """Injected deterministic trial failure (every attempt)."""


class ChaosShmAttachError(ChaosError):
    """Injected shared-memory attach failure in a worker."""


#: Compact-string aliases, e.g. ``"seed=1,kill=0.5,exc=0.25,hang=0.1"``.
_ALIASES = {
    "kill": "kill_workers",
    "exc": "trial_exceptions",
    "hang": "hangs",
    "shm": "shm_attach_failures",
    "torn": "torn_writes",
    "poison": "poison_trials",
    "drop": "net_drop",
    "dup": "net_dup",
    "delay": "net_delay",
    "disconnect": "net_disconnect",
}


@dataclass(frozen=True)
class ChaosSpec:
    """Seeded firing rates for each fault kind (all off by default).

    Rates are probabilities in ``[0, 1]`` evaluated deterministically per
    site (pack key, trial key, worker index, or store key — see the hook
    functions); ``1.0`` fires at every site of that kind.
    """

    seed: int = 0
    kill_workers: float = 0.0  # SIGKILL the worker mid-pack (attempt 0)
    trial_exceptions: float = 0.0  # transient per-trial raise (attempt 0)
    poison_trials: float = 0.0  # deterministic per-trial raise (every attempt)
    hangs: float = 0.0  # stall a pack past its lease deadline (attempt 0)
    hang_s: float = 3600.0  # how long a hang sleeps (the lease kill ends it)
    shm_attach_failures: float = 0.0  # fail the worker's zero-copy attach
    torn_writes: float = 0.0  # prepend a torn junk line to a store append
    # Network faults, applied per (message kind, site) in the fabric
    # worker's transport (:mod:`repro.fabric.worker`). Like every
    # non-poison fault they fire on a site's first attempt only, so the
    # reconnect/duplicate-drop machinery restores a bit-identical run.
    net_drop: float = 0.0  # message never sent (connection refused/reset)
    net_dup: float = 0.0  # message delivered twice (client retry after lost ack)
    net_delay: float = 0.0  # message delayed by net_delay_s before sending
    net_disconnect: float = 0.0  # sent, but the connection dies before the reply
    net_delay_s: float = 0.2  # how long a delayed message waits

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name in ("seed",):
                continue
            value = getattr(self, f.name)
            if f.name in ("hang_s", "net_delay_s"):
                if value <= 0:
                    raise ValueError(f"{f.name} must be positive")
                continue
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"chaos rate {f.name} must be in [0, 1], got {value}")

    # ------------------------------------------------------------ decisions
    def decide(self, kind: str, key: str) -> bool:
        """Deterministic fire/no-fire for one (fault kind, site) pair."""
        rate = getattr(self, kind)
        if rate <= 0.0:
            return False
        digest = hashlib.sha256(f"{self.seed}:{kind}:{key}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return fraction < rate

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "ChaosSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown chaos spec keys: {sorted(unknown)} (known: {sorted(known)})"
            )
        return cls(**payload)

    @classmethod
    def from_string(cls, text: str) -> "ChaosSpec":
        """Parse ``"seed=1,kill=0.5,exc=0.25"`` (or a JSON object string)."""
        text = text.strip()
        if not text:
            raise ValueError("empty chaos spec")
        if text.startswith("{"):
            return cls.from_dict(json.loads(text))
        payload: dict = {}
        for part in text.split(","):
            if "=" not in part:
                raise ValueError(
                    f"chaos spec parts must be key=value, got {part!r} "
                    f"(aliases: {sorted(_ALIASES)})"
                )
            raw_key, raw_value = part.split("=", 1)
            key = _ALIASES.get(raw_key.strip(), raw_key.strip())
            payload[key] = int(raw_value) if key == "seed" else float(raw_value)
        return cls.from_dict(payload)


# ------------------------------------------------------------------ activation
_ACTIVE: Optional[ChaosSpec] = None
_ENV_CACHE: tuple[Optional[str], Optional[ChaosSpec]] = (None, None)


def install(spec: Optional[ChaosSpec]) -> None:
    """Activate (or with ``None`` deactivate) chaos for this process."""
    global _ACTIVE
    _ACTIVE = spec


def active() -> Optional[ChaosSpec]:
    """The installed spec, else one parsed from ``$REPRO_CHAOS``, else None."""
    if _ACTIVE is not None:
        return _ACTIVE
    global _ENV_CACHE
    raw = os.environ.get("REPRO_CHAOS")
    if not raw:
        return None
    cached_raw, cached_spec = _ENV_CACHE
    if raw != cached_raw:
        _ENV_CACHE = (raw, ChaosSpec.from_string(raw))
    return _ENV_CACHE[1]


# ----------------------------------------------------------------------- hooks
def maybe_fail_trial(key: str, attempt: int) -> None:
    """Per-trial fault point, checked for every lane of a pack before it runs.

    ``trial_exceptions`` raises only on the trial's first attempt — the
    model of a transient fault the retry machinery must absorb.
    ``poison_trials`` raises on every attempt — the deterministic failure
    the quarantine machinery must persist and skip on resume.
    """
    spec = active()
    if spec is None:
        return
    if spec.decide("poison_trials", key):
        raise ChaosPoisonError(f"chaos: poison trial {key}")
    if attempt == 0 and spec.decide("trial_exceptions", key):
        logger.warning("chaos: injecting transient exception into trial %s", key)
        raise ChaosTrialError(f"chaos: transient failure for trial {key}")


def maybe_kill_worker(pack_key: str, pack_attempt: int) -> None:
    """SIGKILL this worker mid-pack (first lease of the pack only)."""
    spec = active()
    if spec is None or WORKER_INDEX is None or pack_attempt > 0:
        return
    if spec.decide("kill_workers", pack_key):
        logger.warning("chaos: SIGKILLing worker %d on pack %s", os.getpid(), pack_key)
        os.kill(os.getpid(), signal.SIGKILL)


def maybe_hang(pack_key: str, pack_attempt: int) -> None:
    """Stall this worker past any sane lease deadline (first lease only).

    The sleep is sliced so a graceful terminate also ends it promptly; the
    supervisor's lease-expiry SIGKILL ends it regardless.
    """
    spec = active()
    if spec is None or WORKER_INDEX is None or pack_attempt > 0:
        return
    if spec.decide("hangs", pack_key):
        logger.warning("chaos: hanging worker %d on pack %s", os.getpid(), pack_key)
        deadline = time.monotonic() + spec.hang_s
        while time.monotonic() < deadline:
            time.sleep(0.05)


def maybe_fail_shm_attach() -> None:
    """Fault point inside :func:`repro.models.sharing.attach_bundle`."""
    spec = active()
    if spec is None or WORKER_INDEX is None:
        return
    if spec.decide("shm_attach_failures", f"worker-{WORKER_INDEX}"):
        raise ChaosShmAttachError(
            f"chaos: shm attach failure in worker {WORKER_INDEX}"
        )


def maybe_tear_store_line(key: str) -> bool:
    """True when the store should prepend a torn junk line to this append."""
    spec = active()
    return spec is not None and spec.decide("torn_writes", key)


#: Network fault kinds in precedence order: a site decided for several kinds
#: suffers only the first — keeps per-site behavior a single deterministic
#: outcome instead of a compound one.
NET_FAULTS = (
    ("net_drop", "drop"),
    ("net_disconnect", "disconnect"),
    ("net_dup", "dup"),
    ("net_delay", "delay"),
)


def maybe_net_fault(msg_kind: str, site: str, attempt: int = 0) -> Optional[str]:
    """Network fault point for one protocol message send.

    Called by the fabric worker's transport before each send. Returns the
    fault to apply — ``"drop"`` (never send, surface a transport error),
    ``"disconnect"`` (send, then lose the connection before the reply),
    ``"dup"`` (send twice), ``"delay"`` (sleep ``net_delay_s`` first) — or
    ``None``. The decision is the same pure hash of ``(seed, kind, site)``
    as every other fault, and fires only on ``attempt == 0`` of a site: the
    retry that follows a drop/disconnect runs clean, so a chaos-ridden
    campaign still completes bit-identical to a fault-free one.
    """
    spec = active()
    if spec is None or attempt > 0:
        return None
    key = f"{msg_kind}:{site}"
    for kind, name in NET_FAULTS:
        if spec.decide(kind, key):
            logger.warning("chaos: net %s on %s %s", name, msg_kind, site)
            return name
    return None
