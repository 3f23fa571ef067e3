"""Interactive labeling session: Darwin with a human in the loop.

:class:`LabelingSession` exposes Darwin's step API in the shape an annotation
UI (or a command-line prompt, as in ``examples/interactive_session.py``) needs:
ask for the next question, show the rule plus a few matching sentences, submit
the YES/NO answer, repeat until the budget runs out.

Since the crowd subsystem landed, the session is a single-annotator client of
the same :class:`~repro.crowd.CrowdCoordinator` that serves concurrent crowds
(K=1, redundancy 1, batch size 1), so the interactive path and the crowd path
can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..config import CrowdConfig
from ..errors import BudgetExhaustedError, ConfigurationError
from ..rules.heuristic import LabelingHeuristic
from ..core.oracle import BudgetedOracle, Oracle
from .darwin import Darwin, DarwinResult, QueryRecord


@dataclass(frozen=True)
class PendingQuestion:
    """A question waiting for the annotator's answer.

    Attributes:
        rule: The candidate rule being verified.
        rendered: The rule as a human-readable string.
        example_texts: Texts of a few sentences matching the rule (what
            Figure 2 shows the annotator).
        sample_ids: Sentence ids of the examples (the oracle sample).
    """

    rule: LabelingHeuristic
    rendered: str
    example_texts: Sequence[str]
    sample_ids: Tuple[int, ...] = ()


class LabelingSession:
    """Step-by-step interactive wrapper around :class:`Darwin`.

    Args:
        darwin: The Darwin instance to drive (started here from the seeds).
        budget: Maximum questions for this session; must be positive when
            given (default: what the config budget has left). Reconciled
            against ``darwin.config.budget`` (and, when ``oracle`` is a
            pre-wrapped :class:`BudgetedOracle`, against its remaining budget)
            by taking the tightest bound, so no component can out-ask another.
        oracle: Optional auto-answering oracle; when given,
            :meth:`submit_answer` may be called without an argument.
        seed_rule_texts / seed_rules / seed_positive_ids: Seeds; see
            :meth:`Darwin.start`. May be omitted when ``darwin`` is already
            started (e.g. restored from an engine checkpoint) — the session
            then continues the existing run instead of reseeding it.
    """

    def __init__(
        self,
        darwin: Darwin,
        budget: Optional[int] = None,
        seed_rule_texts: Optional[Sequence[str]] = None,
        seed_rules: Optional[Sequence[LabelingHeuristic]] = None,
        seed_positive_ids: Optional[Sequence[int]] = None,
        oracle: Optional[Oracle] = None,
    ) -> None:
        from ..crowd.coordinator import CrowdCoordinator

        if budget is not None and budget < 1:
            raise ConfigurationError("budget must be positive")
        self.darwin = darwin
        self.oracle = oracle
        self._pending: Optional[PendingQuestion] = None
        self._pending_assignment = None
        self._questions_asked = 0
        has_seeds = bool(seed_rules or seed_rule_texts or seed_positive_ids)
        if has_seeds or not getattr(darwin, "_started", False):
            darwin.start(
                seed_rules=seed_rules,
                seed_rule_texts=seed_rule_texts,
                seed_positive_ids=seed_positive_ids,
            )
        # Budget reconciliation (the Darwin.run double-budget fix, applied
        # here too): an explicit session budget and the config budget must not
        # disagree with a pre-wrapped BudgetedOracle's own allowance — honour
        # the tightest of the bounds in play. Computed after the start
        # decision: a continued session (started darwin, no reseed) only gets
        # what the config budget has left after the questions already in the
        # run's history, so resuming can never out-ask the original budget.
        config_remaining = max(0, darwin.config.budget - len(darwin.history))
        session_budget = min(
            config_remaining if budget is None else budget, config_remaining
        )
        if isinstance(oracle, BudgetedOracle):
            session_budget = min(session_budget, oracle.remaining)
        if session_budget <= 0:
            raise ConfigurationError("session budget must be positive")
        self.budget = session_budget
        # A single-annotator crowd: one question in flight, every answer
        # applied and flushed immediately — the serial Darwin loop, served
        # through the shared dispatcher.
        self._coordinator = CrowdCoordinator(
            darwin,
            CrowdConfig(
                num_annotators=1,
                redundancy=1,
                batch_size=1,
                budget=self.budget,
                annotator_latency=0.0,
            ),
        )

    # -------------------------------------------------------------- stepping
    @property
    def questions_asked(self) -> int:
        """Number of questions answered so far."""
        return self._questions_asked

    @property
    def questions_remaining(self) -> int:
        """Questions left in the budget."""
        return max(0, self.budget - self._questions_asked)

    @property
    def is_done(self) -> bool:
        """True when the budget is exhausted."""
        return self.questions_remaining == 0

    def next_question(self) -> Optional[PendingQuestion]:
        """The next question for the annotator (None when exhausted/done)."""
        if self.is_done:
            return None
        if self._pending is not None:
            return self._pending
        assignment = self._coordinator.request_question(0)
        if assignment is None:
            return None
        self._pending_assignment = assignment
        self._pending = PendingQuestion(
            rule=assignment.rule,
            rendered=assignment.rendered,
            example_texts=assignment.example_texts,
            sample_ids=assignment.sample_ids,
        )
        return self._pending

    def submit_answer(self, is_useful: Optional[bool] = None) -> QueryRecord:
        """Record the annotator's YES/NO answer to the pending question.

        When the session was built with an ``oracle``, ``is_useful`` may be
        omitted and the oracle answers in the annotator's place.
        """
        if self._pending is None or self._pending_assignment is None:
            raise BudgetExhaustedError("no pending question; call next_question() first")
        if is_useful is None:
            if self.oracle is None:
                raise ConfigurationError(
                    "no oracle attached to the session; pass is_useful explicitly"
                )
            answer = self.oracle.ask(self._pending.rule, self._pending.sample_ids)
            is_useful = answer.is_useful
        record = self._coordinator.submit_answer(
            self._pending_assignment, bool(is_useful)
        )
        assert record is not None  # redundancy=1 commits on the first vote
        self._pending = None
        self._pending_assignment = None
        self._questions_asked += 1
        return record

    # --------------------------------------------------------------- results
    def accepted_rules(self) -> List[str]:
        """Rules accepted so far, rendered."""
        return self.darwin.rule_set.describe()

    def result(self) -> DarwinResult:
        """Snapshot the session as a :class:`DarwinResult`."""
        return self._coordinator.result().darwin_result
