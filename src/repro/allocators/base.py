"""The allocator framework.

All algorithms in the paper's evaluation share the same outer loop
(Sec. III / IV-A): VMs are processed **in increasing order of their starting
time**, and for each VM the algorithm chooses one server among those with
sufficient spare CPU and memory throughout the VM's interval. A subclass
states only its selection rule, once, as one of three declarations:

* a **scan key** (:attr:`Allocator.scan_key`) — first fit along the
  servers sorted by it (:meth:`Allocator._first_admissible`, a scalar
  short-circuit walk);
* a **score** (:attr:`Allocator.score`) — elementwise arithmetic over
  named columns, lowest admissible row wins
  (:meth:`Allocator._best_scored`): a type's warm servers are probed
  and rated on a kernel batch or one row at a time, its clone class as
  the type itself;
* a :meth:`Allocator.choose` among all the admissible servers.

``_select``, ``choose``, ``candidate_score`` and the explain scores are
derived from the declaration here; an allocator whose rule is a walk of
its own (min-energy's queues, round robin's cursor) overrides
``_select``. Whatever needs a batch of verdicts reads it from
:meth:`Allocator._probe_batch` — the only place that decides, by the
batch's length, whether the fleet kernel or a loop of scalar probes
fills it.

The ``candidates_evaluated`` / ``candidates_feasible`` counters — *probes
performed* and *admissible probes* — are kept by :meth:`Allocator._examine`
(one scalar yes/no), :meth:`Allocator._admissible_rows` (one batch) and the
score scan's rows, and mean the same for every algorithm, so the service's
candidate-count histogram compares like with like across allocators.

Allocators are deterministic given their ``seed``; randomized strategies
(FFPS's shuffled server order, random fit) draw from a private
``numpy.random.Generator`` so runs are reproducible. The generator is
made on the first draw, and numpy, like the batch types of
:mod:`repro.placement.kernels`, is imported by the code that uses it:
an allocator whose walk stays scalar never loads it. Construction is
keyword-only (``seed``, ``policy``, ``engine``) so
:func:`~repro.allocators.registry.make_allocator` can forward arbitrary
per-algorithm parameters by name.
"""

from __future__ import annotations

from contextlib import closing
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.allocators.batch import Decision
from repro.allocators.state import ServerState
from repro.energy.cost import SleepPolicy
from repro.exceptions import AllocationError
from repro.model.allocation import Allocation
from repro.model.cluster import Cluster
from repro.model.constraints import PlacementConstraints
from repro.model.vm import VM
from repro.obs.explain import (
    CandidateVerdict,
    ExplainRecorder,
    PlacementExplanation,
)
from repro.obs.tracer import get_tracer
from repro.placement.config import EngineConfig
from repro.placement.feasibility import Feasibility, ScoreRow
from repro.placement.index import CandidateIndex

if TYPE_CHECKING:
    import numpy as np

    from repro.placement.kernels import FeasibilityBatch
    from repro.simulation.admission import AdmissionDecision

__all__ = ["Allocator"]

#: Rows from which a batch on a fleet the index covers is one
#: ``probe_fleet`` call (and a score scan's warm rows one vectorized
#: score) rather than one scalar ``ServerState.probe`` (and one row
#: score) per server. Measured on busy rows of best-fit fleets (1000
#: VMs / 300 servers, sparse and dense; 2000 dense VMs / 3000 servers):
#: a scalar probe ~1.5 us a row, a ``probe_fleet`` ~45 us plus ~0.35 us
#: a row; even at 32-48 rows.
_FLEET_PROBE_FROM = 40


class Allocator:
    """Base class for all allocation algorithms.

    Parameters (keyword-only)
    -------------------------
    seed:
        Seed for the allocator's private random generator. Deterministic
        algorithms ignore it but accept it so every algorithm can be
        constructed uniformly by the experiment harness.
    policy:
        Sleep policy used when evaluating energy costs during allocation
        (the paper's rule, :attr:`SleepPolicy.OPTIMAL`, by default).
    engine:
        An :class:`~repro.placement.config.EngineConfig` carrying the
        Γ-robustness budget. ``None`` means the default config (nominal
        probing). A bare string raises
        :class:`~repro.exceptions.ValidationError`; spec strings go
        through :meth:`EngineConfig.parse` or
        :func:`~repro.allocators.registry.make_allocator`.
    """

    #: Registry name; subclasses must override.
    name: str = "abstract"
    #: The Eq.-17 increase ``select`` last priced its choice at, or None.
    chosen_cost: float | None = None

    def __init__(self, *, seed: int | None = None,
                 policy: SleepPolicy = SleepPolicy.OPTIMAL,
                 engine: EngineConfig | str | None = None) -> None:
        self._seed = seed
        self._generator: np.random.Generator | None = None
        self._policy = policy
        #: the resolved engine configuration (robustness budget)
        self.engine_config = EngineConfig.coerce(engine)
        self._index: CandidateIndex | None = None
        self._constraints: PlacementConstraints | None = None
        self._placed_ids: dict[int, int] = {}
        #: servers probed / found admissible by the most recent ``select``
        #: (fed into the service's candidate-count histogram).
        self.candidates_evaluated = 0
        self.candidates_feasible = 0

    @property
    def _rng(self) -> np.random.Generator:
        """The private generator, made on the first draw from ``seed``."""
        if self._generator is None:
            import numpy as np

            self._generator = np.random.default_rng(self._seed)
        return self._generator

    # -- template method -----------------------------------------------------

    def allocate(self, vms: Iterable[VM], cluster: Cluster,
                 constraints: PlacementConstraints | None = None, *,
                 recorder: ExplainRecorder | None = None) -> Allocation:
        """Place every VM; returns the resulting :class:`Allocation`.

        VMs are processed in increasing order of start time (ties broken by
        end time then id, for determinism). Optional placement
        ``constraints`` (affinity / anti-affinity groups) restrict the
        admissible servers per VM on top of capacity. With a ``recorder``
        every decision additionally emits a
        :class:`~repro.obs.explain.PlacementExplanation` — including the
        final, rejected one when allocation fails.

        Raises
        ------
        AllocationError
            When some VM fits no admissible server for its whole duration.
        """
        placements: dict[VM, int] = {}
        with closing(self._walk(vms, cluster, constraints, recorder,
                                "allocator.allocate")) as walk:
            for vm, decision, _ in walk:
                if decision is None:
                    raise AllocationError(
                        f"no admissible server can host {vm} for its "
                        f"whole duration", vm_id=vm.vm_id)
                placements[vm] = decision.state.server.server_id
        return Allocation(cluster, placements)

    def allocate_batch(self, vms: Iterable[VM], cluster: Cluster,
                       constraints: PlacementConstraints | None = None
                       ) -> list[Decision]:
        """Place a whole batch; returns one :class:`Decision` per VM.

        The batch is processed in the same deterministic order as
        :meth:`allocate` (increasing start time, ties by end then id),
        but decisions come back *in the order the VMs were given* and a
        VM that fits nowhere yields a rejection decision
        (``server_id=None``) instead of raising — batch callers want
        the whole outcome, not the first failure.
        """
        items = list(vms)
        # Decisions map back to the request order; identity-keyed so a
        # clairvoyant order_vms override (offline extensions) cannot
        # confuse equal-valued records.
        slots: dict[int, list[int]] = {}
        for i, vm in enumerate(items):
            slots.setdefault(id(vm), []).append(i)
        decisions: list[Decision | None] = [None] * len(items)
        with closing(self._walk(items, cluster, constraints, None,
                                "allocator.allocate_batch")) as walk:
            for vm, decision, delta in walk:
                decisions[slots[id(vm)].pop(0)] = Decision(
                    vm=vm, server_id=None if decision is None
                    else decision.state.server.server_id,
                    energy_delta=delta)
        return decisions

    def books(self, cluster: Cluster) -> list[ServerState]:
        """Fresh books for ``cluster`` with this allocator's sleep policy
        and engine config: its walk's, and those of the failure replays
        and epoch passes it decides for — one policy, one Γ."""
        return [ServerState(server, policy=self._policy,
                            engine=self.engine_config)
                for server in cluster]

    def _walk(self, vms: Iterable[VM], cluster: Cluster,
              constraints: PlacementConstraints | None,
              recorder: ExplainRecorder | None, span: str,
              max_delay: int = 0
              ) -> Iterator[tuple[VM, AdmissionDecision | None, float]]:
        """The one offline decision loop (:meth:`allocate`,
        :meth:`allocate_batch`, ``AdmissionController.run``): on fresh
        :meth:`books`, each VM in :meth:`order_vms` order goes through
        :func:`~repro.simulation.admission.offer` with ``max_delay`` and
        is committed; yields ``(vm, decision, energy_delta)``, ``None``
        and ``0.0`` when rejected. Run it under :func:`contextlib.closing`
        so its ``finally`` runs when the caller stops at a rejection."""
        # deferred: the admission module imports the allocators
        from repro.simulation.admission import offer

        ordered = self.order_vms(list(vms))
        states = self.books(cluster)
        self.prepare(states)
        self._constraints = constraints
        self._placed_ids = {}
        tracer = get_tracer()
        try:
            with tracer.span(span, algorithm=self.name, vms=len(ordered),
                             servers=len(states)):
                for vm in ordered:
                    decision = offer(vm, states, self, max_delay, recorder)
                    if decision is None:
                        yield vm, None, 0.0
                        continue
                    # ``offer`` admitted it, at ``chosen_cost`` if it priced it
                    delta = decision.state.place_trusted(
                        decision.vm, self.chosen_cost)
                    server_id = decision.state.server.server_id
                    self._placed_ids[vm.vm_id] = server_id
                    if tracer.enabled:
                        tracer.instant(
                            "place", vm_id=vm.vm_id, server_id=server_id,
                            feasible=self.candidates_feasible,
                            evaluated=self.candidates_evaluated)
                    yield vm, decision, delta
        finally:
            self._constraints = None
            self._placed_ids = {}

    # -- probing -------------------------------------------------------------

    def _examine(self, vm: VM, state: ServerState) -> bool:
        """Ask one candidate yes or no, maintaining the selection counters.

        True when ``state`` is admissible — :meth:`ServerState.admits`
        it *and* active placement constraints allow it. Every examined
        server bumps ``candidates_evaluated``; admissible ones also bump
        ``candidates_feasible``. Every scalar walk routes its probes
        through here (:meth:`_admissible_rows` counts a batch the same
        way) so the counters mean the same thing for every algorithm.
        """
        self.candidates_evaluated += 1
        if not state.admits(vm):
            return False
        if self._constraints is not None and not self._constraints.allows(
                vm.vm_id, state.server.server_id, self._placed_ids):
            return False
        self.candidates_feasible += 1
        return True

    def _probe_batch(self, vm: VM, states: Sequence[ServerState], *,
                     prune: bool = True,
                     positions: list[int] | None = None) -> FeasibilityBatch:
        """The verdicts of ``vm`` on ``states`` as one batch — the one
        place that decides who probes a batch.

        When the prepared index covers ``states``, servers whose *type*
        can never host ``vm`` are left out (unless ``prune`` is off);
        ``positions`` (in fleet order, on a fleet the index covers)
        names the rows instead: a long score scan's warm servers. From
        :data:`_FLEET_PROBE_FROM` rows on, a covered batch is one
        :meth:`~repro.placement.kernels.FleetKernel.probe_fleet` call.
        A shorter one and a fleet the index does not cover (ad-hoc
        recovery scans) are filled from one
        ``ServerState.probe`` per row. Same rows in the same fleet
        order either way, equal field for field.
        """
        import numpy as np

        from repro.placement.kernels import FeasibilityBatch

        index = self._index
        covered = index is not None and index.covers(states)
        if covered and prune and positions is None:
            states = index.candidates(vm)
        picked = states if positions is None else positions
        if covered and len(picked) >= _FLEET_PROBE_FROM:
            kernel = index.kernel  # built, with its positions, on need
            if positions is not None:
                rows = np.array(positions, dtype=np.intp)
            else:
                rows = index.candidate_positions(vm) if prune else None
            return kernel.probe_fleet(vm, rows)
        if positions is not None:
            states = [states[pos] for pos in positions]
        return FeasibilityBatch(
            states, np.arange(len(states)), vm=vm,
            verdicts=[state.probe(vm) for state in states])

    def _admissible_rows(self, vm: VM,
                         batch: FeasibilityBatch) -> np.ndarray:
        """Candidate rows that are feasible *and* constraint-allowed.

        Maintains the selection counters exactly like a scalar sweep
        that probes every candidate: all rows count as evaluated, the
        admissible ones as feasible.
        """
        self.candidates_evaluated += len(batch)
        rows = batch.feasible_indices()
        constraints = self._constraints
        if constraints is not None and rows.size:
            import numpy as np

            placed = self._placed_ids
            rows = np.fromiter(
                (i for i in rows if constraints.allows(
                    vm.vm_id, batch.state_at(i).server.server_id,
                    placed)),
                dtype=np.intp)
        self.candidates_feasible += int(rows.size)
        return rows

    # -- the two walks: first admissible, best score -------------------------

    def _first_admissible(self, vm: VM, states: Sequence[ServerState],
                          order: Iterable[int]) -> int | None:
        """Fleet position of the first admissible server along ``order``.

        ``order`` yields fleet positions in the allocator's scan order.
        Servers whose *type* can never host ``vm`` are skipped uncounted;
        every server up to and including the winner counts as
        evaluated, only the winner as feasible.
        The walk probes scalar whatever the engine config: it stops at
        the winner, and one ``O(log k)`` probe per visited server beats
        a batch probe of servers it would never reach.
        """
        index = self._index
        admits = index.spec_admits(vm) \
            if index is not None and index.covers(states) else None
        for pos in order:
            state = states[pos]
            if admits is not None and not admits[id(state.server.spec)]:
                continue
            if self._examine(vm, state):
                return pos
        return None

    def _best_scored(self, vm: VM,
                     states: Sequence[ServerState]) -> ServerState | None:
        """The admissible server with the lowest :meth:`score`; among
        equal scores the earliest in fleet order wins (``argmin``
        returns the first minimum). Every statically admitted server
        counts as evaluated, the admissible ones as feasible.

        Given the index's queues and no placement constraints, a clone
        class scores as its type's :meth:`Feasibility.idle` row at its
        first member's position (``TestAnIdleServerScoresLikeAClone``)
        and counts as asked and admitted whole. The warm servers are one
        batch from :data:`_FLEET_PROBE_FROM` on (the kernel's, see
        :meth:`_probe_batch`), else one ``ServerState.probe`` and one
        :class:`ScoreRow` score each.
        Constraints are per server: with them every candidate is probed.
        """
        index = self._index
        if self._constraints is not None or index is None \
                or not index.covers(states):
            batch = self._probe_batch(vm, states)
            rows = self._admissible_rows(vm, batch)
            if not rows.size:
                return None
            return batch.state_at(
                rows[int(self.score(vm, batch)[rows].argmin())])
        scored: list[tuple[float, int]] = []  # (score, fleet position)
        warm: list[int] = []
        for group in index.groups_for(vm):
            warm += group.warm
            rep = group.representative()
            if rep is not None:
                clones = len(group.dormant) + len(group.pristine)
                self.candidates_evaluated += clones
                self.candidates_feasible += clones
                scored.append((self.score(vm, ScoreRow(
                    vm, group.spec, Feasibility.idle(group.spec))), rep))
        warm.sort()
        if len(warm) >= _FLEET_PROBE_FROM:
            batch = self._probe_batch(vm, states, positions=warm)
            rows = self._admissible_rows(vm, batch)
            if rows.size:
                scores = self.score(vm, batch)[rows]
                best = int(scores.argmin())
                scored.append((scores[best], warm[rows[best]]))
        else:
            self.candidates_evaluated += len(warm)
            for pos in warm:
                spec, verdict = states[pos].server.spec, states[pos].probe(vm)
                if verdict.feasible:
                    self.candidates_feasible += 1
                    scored.append((self.score(vm, ScoreRow(vm, spec, verdict)),
                                   pos))
        return states[min(scored)[1]] if scored else None

    # -- explain-traces ------------------------------------------------------

    def candidate_score(self, vm: VM, state: ServerState,
                        cost: float | None = None) -> float | None:
        """This algorithm's ranking score for one feasible candidate.

        Lower is always more preferred; ``None`` means the algorithm
        applies no score to this candidate (e.g. random fit). Read off
        the declared rule — the scan key, or :meth:`score` over its one
        row — so only an allocator whose rule is its own walk
        overrides it. ``cost`` is the candidate's incremental Eq.-17
        cost when the caller has priced it already (explain has), for a
        rule that scores by it. Used only by explain-traces — never on
        the selection hot path — and must not mutate allocator state.
        """
        if self.scan_key is not None:
            return float(self.scan_key(state))
        if self.score is not None:
            return float(self.score(vm, ScoreRow(
                vm, state.server.spec, state.probe(vm))))
        return None

    def explain_select(self, vm: VM, states: Sequence[ServerState]
                       ) -> tuple[ServerState | None, PlacementExplanation]:
        """:meth:`select` plus the full per-candidate explanation.

        Every server is given a feasibility verdict (with the failing
        constraint) and, when feasible, its Eq.-2/3 cost terms and the
        algorithm's ranking score. Scores are evaluated *before* the
        selection so stateful scan orders (round robin) are reported as
        the algorithm actually saw them. The counters still reflect the
        embedded :meth:`select` run — what the algorithm itself probed,
        not the exhaustive explain sweep.
        """
        # One unpruned batch answers the whole fleet, scored in one call.
        batch = self._probe_batch(vm, states, prune=False)
        scores = self.score(vm, batch) if self.score is not None else None
        constraints = self._constraints
        pre: list[tuple[str | None, object, float | None]] = []
        for i, state in enumerate(states):
            reason = batch.reason(i)
            if reason is None and constraints is not None \
                    and not constraints.allows(
                        vm.vm_id, state.server.server_id, self._placed_ids):
                reason = "constraint"
            if reason is None:
                terms, cost = state.priced(vm)
                pre.append((None, terms,
                            self.candidate_score(vm, state, cost)
                            if scores is None else float(scores[i])))
            else:
                pre.append((reason, None, None))
        chosen = self.select(vm, states)
        chosen_id = chosen.server.server_id if chosen is not None else None
        verdicts = tuple(
            CandidateVerdict(
                server_id=state.server.server_id,
                server_type=state.server.spec.name,
                feasible=reason is None, reason=reason, cost=cost,
                score=score,
                chosen=state.server.server_id == chosen_id)
            for state, (reason, cost, score) in zip(states, pre))
        explanation = PlacementExplanation(
            vm_id=vm.vm_id, algorithm=self.name,
            decision="placed" if chosen is not None else "rejected",
            server_id=chosen_id, delay=0, candidates=verdicts)
        return chosen, explanation

    # -- hooks ---------------------------------------------------------------

    def prepare(self, states: Sequence[ServerState]) -> None:
        """Build the fleet candidate index, run :meth:`on_prepare`, then
        sort the fleet by :meth:`scan_key` when one is declared.

        Called once per fleet before any placement. The index keeps
        incremental per-type candidate queues and builds the :class:`~repro.placement.kernels.FleetKernel`
        over the fleet's skylines on the first batch long enough to
        want it; both stay in sync through the state watcher protocol,
        so repeated fleet rebuilds re-run this cheaply.
        """
        self._index = CandidateIndex(states) if states else None
        self.on_prepare(states)
        if self.scan_key is not None:
            #: fleet positions in ascending scan key, ties in fleet order
            self._order = sorted(
                range(len(states)), key=lambda pos: self.scan_key(states[pos]))

    def on_prepare(self, states: Sequence[ServerState]) -> None:
        """Hook run once before any placement (e.g. shuffle an order)."""

    def replayed(self, vm: VM, state: ServerState) -> None:
        """Hook: ``vm`` went to ``state`` by a recorded decision of this
        allocator, applied without :meth:`select` (a daemon restore) —
        the last such decision since the fleet was last prepared, which
        is all a daemon keeps. An allocator whose next decision depends
        on its own latest one beyond what the books hold catches up
        here (round robin's rotation).
        Random draws cannot be caught up this way: random fit, and
        FFPS's re-shuffle after a fleet change, are not restore-exact
        (``docs/service.md``)."""

    def order_vms(self, vms: list[VM]) -> list[VM]:
        """Processing order: increasing start time (the paper's online
        setting). Offline extensions may override this with clairvoyant
        orders such as largest-job-first."""
        return sorted(vms, key=lambda v: (v.start, v.end, v.vm_id))

    # -- selection -----------------------------------------------------------

    def select(self, vm: VM,
               states: Sequence[ServerState]) -> ServerState | None:
        """Pick the server for ``vm``, or ``None`` when nothing fits.

        Template method: resets the candidate counters and
        :attr:`chosen_cost`, then delegates to :meth:`_select`.
        Subclasses declare their rule (below) or, when the rule is a walk
        of its own, override :meth:`_select` — never this.
        """
        self.candidates_evaluated = 0
        self.candidates_feasible = 0
        self.chosen_cost = None
        return self._select(vm, states)

    # -- the rule: a subclass declares exactly one of these three ------------

    #: Order allocators: ``scan_key(state) -> float``. Servers are tried
    #: in ascending key (ties in fleet order) and the first admissible
    #: one wins; the key is also the explain score.
    scan_key: Callable[[ServerState], float] | None = None

    #: Score allocators: ``score(vm, rows)``, elementwise over the named
    #: columns of a :class:`FeasibilityBatch` or one :class:`ScoreRow`.
    #: The lowest admissible row wins, the earliest on ties.
    score: Callable[[VM, FeasibilityBatch | ScoreRow],
                    np.ndarray | float] | None = None

    def choose(self, vm: VM, feasible: Sequence[ServerState]) -> ServerState:
        """Select the server for ``vm`` among the feasible candidates.

        ``feasible`` is non-empty and preserves the fleet's id order.
        An allocator with neither a scan key nor a score overrides
        this; for the others it is the declared rule over ``feasible``
        (what failure recovery asks a recovery allocator).
        """
        if self.scan_key is not None:
            return min(feasible, key=self.scan_key)
        if self.score is None:
            raise NotImplementedError(
                f"{type(self).__name__} declares no scan_key, score or choose")
        batch = self._probe_batch(vm, feasible)
        return batch.state_at(int(self.score(vm, batch).argmin()))

    def _select(self, vm: VM,
                states: Sequence[ServerState]) -> ServerState | None:
        """Selection by the declared rule: the first admissible server
        in scan-key order, the best :meth:`score`, or — for an allocator
        that only has a :meth:`choose` — every admissible server in
        fleet order handed to it (so random fit's RNG draw sees the same
        list whoever probed).
        """
        if self.scan_key is not None:
            pos = self._first_admissible(vm, states, self._order)
            return None if pos is None else states[pos]
        if self.score is not None:
            return self._best_scored(vm, states)
        batch = self._probe_batch(vm, states)
        rows = self._admissible_rows(vm, batch)
        if not rows.size:
            return None
        return self.choose(vm, batch.states_at(rows))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
