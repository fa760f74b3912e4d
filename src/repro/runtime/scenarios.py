"""Named, JSON-serialisable run scenarios and a bounded result cache.

A :class:`Scenario` is a declarative description of one driver execution
against one workload scale — driver choice, pager, memory-node count,
the paper-MB usage limit, shortage schedule, and the knobs the ablations
sweep.  The harness, the benchmark suite, and the examples all ask for
runs through :func:`run_scenario` rather than hand-building configs, so
one execution is shared by every consumer that needs it.

The result cache is explicit, sized, clearable
(:func:`clear_cache`), and reports hits/misses both locally
(:func:`cache_stats`) and as ``scenario_cache_hits`` /
``scenario_cache_misses`` counters on the ambient telemetry session
when one is active.

Driver and workload imports happen lazily inside :func:`run_scenario`
(``repro.harness`` imports this package at import time).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, ClassVar, Optional

from repro.cluster.costs import PAPER_COSTS
from repro.errors import ConfigError
from repro.obs import emit_ambient

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.results import RunResult

__all__ = [
    "Scenario",
    "ScenarioCache",
    "run_scenario",
    "lookup_scenario",
    "execute_and_install",
    "install_result",
    "clear_cache",
    "cache_stats",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "paper_limited",
    "SCENARIOS",
]

#: Drivers a scenario may name, mapped lazily to their run classes.
DRIVERS = ("hpa", "npa")


@dataclass(frozen=True)
class Scenario:
    """One named simulated execution, serialisable to/from JSON."""

    #: Registry key (cosmetic for anonymous one-off scenarios).
    name: str = ""
    description: str = ""
    driver: str = "hpa"  # hpa | npa
    #: Workload scale name from :data:`repro.harness.scales.SCALES`.
    scale: str = "small"
    pager: str = "none"
    n_memory_nodes: int = 0
    #: Per-node memory-usage limit in the paper's MB units, scaled to
    #: this workload by ``PreparedWorkload.limit_bytes``; ``None`` = no
    #: limit.
    paper_mb: Optional[float] = None
    replacement: str = "lru"
    monitor_interval_s: Optional[float] = None
    message_block_bytes: Optional[int] = None
    #: ``(virtual_time, memory_node_index)`` shortage injections; the
    #: index selects from the run's ``mem_ids``.
    shortages: tuple = ()
    #: Swap-destination policy (see
    #: :data:`repro.runtime.config.PLACEMENT_POLICIES`).
    placement: str = "most-available"
    #: Background-load trace spec for the memory nodes
    #: (see :func:`repro.cluster.dynamics.parse_trace`); ``"none"``
    #: keeps the static pre-dynamics cluster.
    churn: str = "none"
    #: Mid-pass node failures: ``(at_s, memory_node_index, down_s)``.
    failures: tuple = ()
    eld_fraction: float = 0.0
    loss_probability: float = 0.0
    #: 2 = the paper's §5 experiments (pass 2 is the measured pass).
    max_k: int = 2
    #: Override the scale's minimum support (Table 2 mines at a stiffer
    #: one); ``None`` runs at the scale's value.
    minsup: Optional[float] = None
    #: Override the scale's application-node count (scaling sweeps).
    n_app_nodes: Optional[int] = None
    #: Override the scale's hash-line count (scaling sweeps).
    total_lines: Optional[int] = None
    #: Override the scale's workload seed (the multi-seed report axis);
    #: ``None`` runs at the scale's default seed.  Regenerates the
    #: transaction database, so every downstream quantity resamples.
    seed: Optional[int] = None

    #: The canonical key, built once in ``__post_init__``.  Declared as a
    #: ``ClassVar`` so it is no dataclass field: it stays out of
    #: ``to_dict``, ``__eq__``, ``__repr__`` and the hash.
    _cache_key: ClassVar[str]

    def __post_init__(self) -> None:
        if self.driver not in DRIVERS:
            raise ConfigError(f"unknown driver {self.driver!r}; have {DRIVERS}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # Normalise JSON round-trip artefacts: lists -> nested tuples.
        object.__setattr__(
            self, "shortages", tuple(tuple(s) for s in self.shortages)
        )
        object.__setattr__(
            self, "failures", tuple(tuple(f) for f in self.failures)
        )
        key = self.to_dict()
        del key["name"], key["description"]
        object.__setattr__(self, "_cache_key", json.dumps(key, sort_keys=True))

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        # A shallow walk: every field is a scalar or a tuple of scalar
        # tuples, so this equals the ``dataclasses.asdict`` form.
        out = {}
        for k in _FIELD_NAMES:
            v = getattr(self, k)
            out[k] = list(v) if isinstance(v, tuple) else v
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        unknown = set(data) - set(_FIELD_NAMES)
        if unknown:
            raise ConfigError(f"unknown scenario field(s): {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def with_seed(self, seed: Optional[int]) -> "Scenario":
        """This scenario at ``seed`` (the multi-seed sweep axis); the
        cosmetic name/description are dropped like :func:`paper_limited`
        does, so seeded variants share no registry identity."""
        if seed is None or seed == self.seed:
            return self
        return replace(self, name="", seed=seed)

    def cache_key(self) -> str:
        """Canonical key: every field that affects the execution (the
        cosmetic ``name``/``description`` are excluded), as built at
        construction."""
        return self._cache_key

    # -- execution ---------------------------------------------------------

    def build_config(self, prep):
        """The driver config for this scenario against ``prep`` (a
        :class:`~repro.harness.scales.PreparedWorkload`)."""
        from repro.mining.hpa import HPAConfig
        from repro.mining.npa import NPAConfig

        scale = prep.scale
        cost = PAPER_COSTS
        if self.message_block_bytes is not None:
            cost = replace(cost, message_block_bytes=self.message_block_bytes)
        limit = None if self.paper_mb is None else prep.limit_bytes(self.paper_mb)
        cls = NPAConfig if self.driver == "npa" else HPAConfig
        return cls(
            minsup=scale.minsup if self.minsup is None else self.minsup,
            n_app_nodes=self.n_app_nodes or scale.n_app_nodes,
            total_lines=self.total_lines or scale.total_lines,
            max_k=self.max_k,
            seed=scale.seed if self.seed is None else self.seed,
            pager=self.pager,
            n_memory_nodes=self.n_memory_nodes,
            memory_limit_bytes=limit,
            replacement=self.replacement,
            placement=self.placement,
            churn=self.churn,
            failures=self.failures,
            monitor_interval_s=self.monitor_interval_s,
            cost=cost,
            eld_fraction=self.eld_fraction,
            loss_probability=self.loss_probability,
        )

    def execute(self) -> "RunResult":
        """Run this scenario uncached."""
        from repro.harness.scales import prepare_workload
        from repro.mining.hpa import HPARun
        from repro.mining.npa import NPARun

        prep = prepare_workload(self.scale, self.seed)
        cls = NPARun if self.driver == "npa" else HPARun
        run = cls(prep.db, self.build_config(prep))
        for t, idx in self.shortages:
            run.shortage_schedule.append((t, run.mem_ids[idx]))
        return run.run()


#: The scenario's field names in declaration order (``fields`` omits the
#: ``ClassVar`` key that ``__dataclass_fields__`` would list).
_FIELD_NAMES = tuple(f.name for f in fields(Scenario))


class ScenarioCache:
    """Explicit LRU cache of scenario results.

    The cache is inspectable (:meth:`stats`), clearable mid-session,
    and reports each hit and miss as a ``cache-access`` event on the
    ambient telemetry bus, so ``repro-bench run --trace`` metrics show how
    much work was actually executed.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, RunResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def peek(self, scenario: Scenario) -> "Optional[RunResult]":
        """The cached result or ``None``; counts a hit when found but
        never a miss (probing is not a decision to execute)."""
        key = scenario.cache_key()
        found = self._entries.get(key)
        if found is not None:
            self.hits += 1
            emit_ambient("cache-access", tier="scenario", outcome="hit")
            self._entries.move_to_end(key)
        return found

    def record_miss(self) -> None:
        """Count one miss: a scenario no tier held is being executed."""
        self.misses += 1
        emit_ambient("cache-access", tier="scenario", outcome="miss")

    def put(self, scenario: Scenario, result: "RunResult") -> None:
        """Insert a result (no hit/miss counted)."""
        key = scenario.cache_key()
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every cached result (hit/miss counters are kept)."""
        self._entries.clear()

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "maxsize": self.maxsize,
        }


#: The process-wide result cache used by :func:`run_scenario`.
_CACHE = ScenarioCache(maxsize=256)


def run_scenario(scenario: Scenario) -> "RunResult":
    """Resolve ``scenario`` through the cache tiers, executing on a miss.

    This is the *single* execution path shared by the experiments, the
    benchmarks, and the examples: one
    :func:`lookup_scenario` probe (in-memory :class:`ScenarioCache`,
    then the ambient persistent
    :class:`~repro.runtime.store.ResultStore` when a session is active),
    then :func:`execute_and_install`.  :meth:`Scenario.execute` is the
    uncached form.
    """
    found = lookup_scenario(scenario)
    return execute_and_install(scenario) if found is None else found


def lookup_scenario(scenario: Scenario) -> "Optional[RunResult]":
    """Probe both cache tiers, each at most once, without executing; a
    store hit is promoted into the memory tier."""
    from repro.runtime.store import current_result_store

    found = _CACHE.peek(scenario)
    if found is not None:
        return found
    store = current_result_store()
    if store is None:
        return None
    result = store.get(scenario)
    if result is not None:
        _CACHE.put(scenario, result)
    return result


def execute_and_install(scenario: Scenario) -> "RunResult":
    """The step after a :func:`lookup_scenario` miss: count the memory
    tier's one miss, run the simulation, and populate both tiers, so the
    run is durable (what lets a killed sweep re-run only its missing
    cells).  The sweep engine's in-process path calls this directly to
    skip a second probe."""
    _CACHE.record_miss()
    result = scenario.execute()
    _populate(scenario, result)
    return result


def install_result(scenario: Scenario, result: "RunResult") -> None:
    """Install a result executed in another process (how the sweep
    engine's pool results enter the parent's caches): count the memory
    tier's miss the execution stands for and populate both tiers."""
    _CACHE.record_miss()
    _populate(scenario, result)


def _populate(scenario: Scenario, result: "RunResult") -> None:
    # Only ever after a miss, so the store entry is always (re)written:
    # a torn or other-format file that missed is healed by the atomic
    # ResultStore.put.
    from repro.runtime.store import current_result_store

    _CACHE.put(scenario, result)
    store = current_result_store()
    if store is not None:
        store.put(scenario, result)


def clear_cache() -> None:
    """Drop every cached scenario result (``repro-bench run --trace`` uses
    this to force real executions into the telemetry stream)."""
    _CACHE.clear()


def cache_stats() -> dict:
    """Hit/miss/size counters of the scenario cache."""
    return _CACHE.stats()


# ---------------------------------------------------------------------------
# Catalogue
# ---------------------------------------------------------------------------

#: Named scenarios: the configurations the paper's §5 evaluation keeps
#: returning to, addressable from the CLI, benchmarks, and examples.
SCENARIOS: "OrderedDict[str, Scenario]" = OrderedDict()


def register_scenario(scenario: Scenario) -> Scenario:
    """Add ``scenario`` to the catalogue (name must be unique)."""
    if not scenario.name:
        raise ConfigError("a registered scenario needs a name")
    if scenario.name in SCENARIOS:
        raise ConfigError(f"scenario {scenario.name!r} is already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a catalogue scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; have {sorted(SCENARIOS)}"
        ) from None


def list_scenarios() -> "list[Scenario]":
    """Catalogue scenarios in registration order."""
    return list(SCENARIOS.values())


for _s in (
    Scenario(
        name="baseline",
        description="HPA, no memory limit, no pager (the reference run)",
    ),
    Scenario(
        name="disk-swap",
        description="HPA swapping to the local SCSI disk (Fig. 4 baseline)",
        pager="disk",
    ),
    Scenario(
        name="remote-swap",
        description="HPA with dynamic remote-memory swapping (§5.2)",
        pager="remote", n_memory_nodes=4,
    ),
    Scenario(
        name="remote-update",
        description="HPA with remote update operations (§5.3, the winner)",
        pager="remote-update", n_memory_nodes=4,
    ),
    Scenario(
        name="migration",
        description="remote update with two mid-pass shortages (Fig. 5)",
        pager="remote-update", n_memory_nodes=4,
        shortages=((0.05, 0), (0.09, 1)),
    ),
    Scenario(
        name="npa-baseline",
        description="NPA, full candidate duplication, no limit (§2.2)",
        driver="npa",
    ),
    Scenario(
        name="npa-remote-update",
        description="NPA under remote update paging (stress baseline)",
        driver="npa", pager="remote-update", n_memory_nodes=4,
    ),
    Scenario(
        name="churning",
        description="remote update under sawtooth background load",
        pager="remote-update", n_memory_nodes=4,
        churn="sawtooth:period=0.04,low=0.1,high=0.9",
        placement="predictive",
    ),
    Scenario(
        name="node-failure",
        description="remote update with a mid-pass node failure + recovery",
        pager="remote-update", n_memory_nodes=4,
        failures=((0.05, 0, 0.04),),
    ),
):
    register_scenario(_s)
del _s


def paper_limited(scenario: Scenario, paper_mb: float) -> Scenario:
    """``scenario`` with a paper-MB memory limit applied (the sweeps in
    Figures 3-5 are catalogue scenarios swept over this knob)."""
    return replace(scenario, name="", paper_mb=paper_mb)
