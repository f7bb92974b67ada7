"""Attempted and failed public calls, by call and by kind of failure.

A call fails when it raises anything other than the typed refusal its
inputs call for, or when its output fails the benchmark's own check.  The
kind is the exception type, or ``check:<property>`` for a failed check.

bwt fails some calls on these workloads at the commit the benchmark was
written against (see ``known_failures.json``).  Those known failures are
counted and printed like any other (as expected failures, in the manner of
an xfail), but only a call that fails in a way *not* on that list counts as
an unexpected failure and makes the run incorrect.  Failures are matched one
check property at a time:

* an operation on fixed inputs (its label does not depend on the seed)
  fails the same way on every seed, so its entries name the operation's
  label, the call and the kind exactly;
* on an operation with an input drawn from the seed, failures come and go
  with where the random spectrum falls against the rank cut, so its entries
  carry the label ``seeded`` and name only the call and the kind.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

KNOWN_FILE = Path(__file__).resolve().parent / "known_failures.json"


def known_failures(workload: str) -> frozenset:
    """The (operation label, call, kind) entries listed for ``workload``."""
    entries = json.loads(KNOWN_FILE.read_text())[workload]
    return frozenset(tuple(e) for e in entries)


class Ledger:
    def __init__(self, known: frozenset = frozenset()):
        self.known = known
        self.label = None
        self.seeded_labels: set = set()
        self.attempted: Counter = Counter()
        self.failures: Counter = Counter()  # (call, kind) -> count
        self.seen: Counter = Counter()  # (label, call, single kind) -> count
        self.n_unexpected = 0  # calls with at least one failure not on the list

    def begin(self, label: str, seeded: bool) -> None:
        """Attribute the calls recorded from now on to operation ``label``,
        which has an input drawn from the seed when ``seeded``."""
        self.label = label
        if seeded:
            self.seeded_labels.add(label)

    def ok(self, call: str) -> None:
        self.attempted[call] += 1

    def fail(self, call: str, kind: str) -> None:
        self.attempted[call] += 1
        self.failures[(call, kind)] += 1
        if kind.startswith("check:"):
            parts = ["check:" + p for p in kind.removeprefix("check:").split("+")]
        else:
            parts = [kind]
        for part in parts:
            self.seen[(self.label, call, part)] += 1
        if any(self.entry(self.label, call, part) not in self.known for part in parts):
            self.n_unexpected += 1

    def record(self, call: str, problems) -> None:
        """One attempted call whose check found ``problems`` (possibly none)."""
        if problems:
            self.fail(call, "check:" + "+".join(problems))
        else:
            self.ok(call)

    def failed_calls(self, call: str) -> int:
        return sum(c for (name, _), c in self.failures.items() if name == call)

    def entry(self, label: str, call: str, kind: str) -> tuple:
        """The ``known_failures.json`` entry that covers this failure."""
        return ("seeded" if label in self.seeded_labels else label, call, kind)

    @property
    def unexpected(self) -> dict:
        """Failures absent from the known list: (label, call, kind) -> count."""
        return {key: c for key, c in self.seen.items() if self.entry(*key) not in self.known}

    @property
    def n_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def n_failed(self) -> int:
        return sum(self.failures.values())

    def report_lines(self) -> list[str]:
        lines = []
        for call in sorted(self.attempted):
            kinds = {k: c for (name, k), c in self.failures.items() if name == call}
            detail = ", ".join(f"{k} x{c}" for k, c in sorted(kinds.items())) or "none"
            lines.append(f"  {call}: {self.failed_calls(call)} failed of "
                         f"{self.attempted[call]} ({detail})")
        return lines
