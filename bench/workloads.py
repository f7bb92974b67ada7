"""The three workloads: ``pairs``, ``barycenter`` and ``cli``.

Each workload builds its inputs in :meth:`setup` with bwt's constructors,
lists its operations in ``ops`` (run cyclically, one client in a closed
loop), runs one operation in :meth:`run` (the timed part) and checks its
outputs in :meth:`check` (untimed).  ``trace_ops`` is the fixed list the
traced run covers, so its counters are deterministic for a seed.
:meth:`label` names an operation by what it runs, independently of the
seed, and :meth:`seeded` tells whether any of its inputs is drawn from the
seed; both serve to match failures against ``known_failures.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import calibrate
import checks
import inputs

#: Geodesic parameter of the sampled point in every ``pairs`` session.
T_MID = 0.5


def _exc_kind(exc: BaseException) -> str:
    return type(exc).__name__


class Pairs:
    """One operation is one ordered-pair session over the n = 200 pool."""

    name = "pairs"
    probe = calibrate.PAIRS

    def setup(self, seed: int, work: Path) -> None:
        import bwt  # noqa: F401  (set-up time includes the import)

        self.pool = inputs.pairs_pool(seed)
        self.ops = inputs.pair_order(len(self.pool))
        self.trace_ops = list(self.ops)
        self._spec: dict = {}

    def kind(self, op) -> str:
        i, j = op
        return "fullrank" if self.pool[i].full and self.pool[j].full else "singular"

    def label(self, op) -> str:
        return f"{self.pool[op[0]].name}>{self.pool[op[1]].name}"

    def seeded(self, op) -> bool:
        return self.pool[op[0]].seeded or self.pool[op[1]].seeded

    def _spectrum(self, i: int) -> checks.Spectrum:
        if i not in self._spec:
            self._spec[i] = checks.Spectrum(self.pool[i].cov.data)
        return self._spec[i]

    def prepare(self, op) -> bool:
        """Own reachability decision (untimed): rank(a) >= rank(b)."""
        i, j = op
        return self._spectrum(i).rank >= self._spectrum(j).rank

    def run(self, op, reachable: bool) -> dict:
        from bwt import geodesic, schur, transport

        a, b = self.pool[op[0]].cov, self.pool[op[1]].cov
        out: dict = {}

        def call(name, fn, *args, **kwargs):
            try:
                out[name] = fn(*args, **kwargs)
            except Exception as exc:  # every outcome is judged in check()
                # without its traceback, which would keep the call's frames
                # and their matrices alive until the next cyclic collection
                out[name] = exc.with_traceback(None)
                return None
            return out[name]

        call("w2_distance", transport.w2_distance, a, b)
        call("spd_reachability", transport.spd_reachability, a, b)
        if reachable:
            call("ot_map", transport.ot_map, a, b)
        path = call("make_path", geodesic.make_path, a, b,
                    style="extreme" if reachable else "zero")
        if path is not None:
            gamma = call("gamma", path.gamma, T_MID)
            if gamma is not None:
                call("classify_point", geodesic.classify_point, a, b, gamma, T_MID)
        call("schur_complement", schur.schur_complement, a, b)
        return out

    def check(self, op, reachable: bool, out: dict, ledger) -> None:
        ledger.begin(self.label(op), self.seeded(op))
        src, dst = self.pool[op[0]], self.pool[op[1]]
        a, b = src.cov.data, dst.cov.data
        sa = self._spectrum(op[0])
        ref = checks.w2sq(src.f, dst.f)
        fid = checks.nuclear(src.f, dst.f)
        s_val, s_rank = checks.schur(sa, b)
        spd_expected = checks.schur_is_zero(s_val, b)

        def judge(name, verify):
            res = out[name]
            if isinstance(res, BaseException):
                ledger.fail(name, _exc_kind(res))
            else:
                ledger.record(name, verify(res))

        judge("w2_distance", lambda d: [] if abs(d * d - ref) <= checks.w2sq_tol(src.f, dst.f)
              else ["w2"])

        def spd_problems(rep):
            if rep.spd_exists != spd_expected:
                return ["spd_exists"]
            if rep.spd_exists:
                return [f"witness_{p}" for p in checks.map_problems(a, b, rep.witness.t, fid, spd=True)]
            return []

        judge("spd_reachability", spd_problems)
        if reachable:
            judge("ot_map", lambda m: checks.map_problems(a, b, m.t, fid))

        path = out["make_path"]
        judge("make_path", lambda p: checks.path_problems(a, b, p.g, p.m))
        if isinstance(path, BaseException):
            judge("schur_complement", lambda s: self._schur_problems(s, s_val, s_rank, b))
            return
        fg = (1.0 - T_MID) * path.g + T_MID * path.m
        gamma = out["gamma"]
        judge("gamma", lambda g: [] if checks.fro(fg @ fg.T - g.data)
              <= checks.TOL_MAP * (1.0 + checks.fro(g.data)) else ["factor"])
        if not isinstance(gamma, BaseException):
            on_path = checks.on_geodesic(src.f, dst.f, fg, T_MID)
            res = out["classify_point"]
            if isinstance(res, BaseException):
                from bwt import InvalidParam

                if isinstance(res, InvalidParam) and not on_path:
                    ledger.ok("classify_point")  # a refusal the benchmark agrees with
                else:
                    ledger.fail("classify_point", _exc_kind(res))
            elif not on_path:
                ledger.fail("classify_point", "check:accepted_off_path")
            else:
                g_val, _ = checks.schur(sa, gamma.data)
                want = "extreme" if checks.schur_is_zero(g_val, gamma.data) else "interior"
                bad = [] if res.kind == want else ["kind"]
                if res.rank_gamma != checks.rank(gamma.data) or res.rank_a != sa.rank:
                    bad.append("rank")
                ledger.record("classify_point", bad)
        judge("schur_complement", lambda s: self._schur_problems(s, s_val, s_rank, b))

    @staticmethod
    def _schur_problems(res, s_val, s_rank, b):
        bad = []
        if np.abs(res.value - s_val).max() > checks.TOL_SCHUR * (1.0 + checks.fro(b)):
            bad.append("value")
        if res.rank != s_rank:
            bad.append("rank")
        return bad


class Barycenter:
    """One operation is solve_bcd plus fixed_point_residual on one family."""

    name = "barycenter"
    probe = calibrate.BARYCENTER
    #: Families in the traced run: the first twelve operations, which are
    #: eight full-rank and four singular families.
    TRACE_FAMILIES = 12

    def setup(self, seed: int, work: Path) -> None:
        import bwt  # noqa: F401

        self.fams = inputs.barycenter_families(seed)
        self.ops = inputs.barycenter_order()
        self.trace_ops = self.ops[: self.TRACE_FAMILIES]

    def kind(self, op) -> str:
        return self.fams[op].kind

    def label(self, op) -> str:
        return self.kind(op)

    def seeded(self, op) -> bool:
        return True

    def prepare(self, op):
        return None

    def run(self, op, _prep) -> dict:
        from bwt import barycenter

        problem = self.fams[op].problem
        out: dict = {}
        try:
            out["solve_bcd"] = res = barycenter.solve_bcd(problem)
        except Exception as exc:
            out["solve_bcd"] = exc.with_traceback(None)
            return out
        try:
            out["fixed_point_residual"] = barycenter.fixed_point_residual(problem, res.a_hat)
        except Exception as exc:
            out["fixed_point_residual"] = exc.with_traceback(None)
        return out

    def check(self, op, _prep, out: dict, ledger) -> None:
        ledger.begin(self.label(op), self.seeded(op))
        res = out["solve_bcd"]
        if isinstance(res, BaseException):
            ledger.fail("solve_bcd", _exc_kind(res))
            return
        fp = out["fixed_point_residual"]
        problem = self.fams[op].problem
        covs = [c.data for c in problem.covs]
        bad = checks.barycenter_problems(covs, problem.weights, res,
                                         fp if not isinstance(fp, BaseException) else np.nan)
        ledger.record("solve_bcd", bad["solve_bcd"])
        if isinstance(fp, BaseException):
            ledger.fail("fixed_point_residual", _exc_kind(fp))
        else:
            ledger.record("fixed_point_residual", bad["fixed_point_residual"])

    def sweeps(self, op, out) -> int:
        res = out.get("solve_bcd")
        return 0 if isinstance(res, BaseException) or res is None else res.iterations


# ---------------------------------------------------------------------------
# cli


#: Report fields that name output files; they differ between the subprocess
#: run and the in-process reference run by construction.
_PATH_KEYS = {"map_file", "barycenter_file", "file"}


def _same(x, y) -> bool:
    if isinstance(x, dict) and isinstance(y, dict):
        keys = set(x) | set(y)
        return all(k in x and k in y and (k in _PATH_KEYS or _same(x[k], y[k])) for k in keys)
    if isinstance(x, list) and isinstance(y, list):
        return len(x) == len(y) and all(_same(p, q) for p, q in zip(x, y))
    if isinstance(x, float) or isinstance(y, float):
        if isinstance(x, bool) or isinstance(y, bool):
            return x == y
        return abs(x - y) <= 1e-9 * (1.0 + abs(x) + abs(y))
    return x == y


def run_child(argv, env, cwd, log: Path, timeout: float = 120.0):
    """Run a child process to completion; returns (exit code, wall s,
    peak RSS in MB).  The child is reaped with wait4 to read its own rusage."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Cli:
    """One operation is one ``python -m bwt.cli`` subprocess."""

    name = "cli"
    probe = calibrate.SPAWN
    CMDS = ("distance", "map", "geodesic", "barycenter", "gp")

    def setup(self, seed: int, work: Path) -> None:
        import bwt  # noqa: F401

        self.work = work
        self.fixtures = inputs.cli_fixtures(seed)
        for fx, pair in self.fixtures.items():
            for tag, inp in zip("ab", pair):
                with open(work / f"{fx}_{tag}.json", "w") as fh:
                    json.dump({"matrix": inp.cov.data.tolist()}, fh)
        self.ops = list(range(len(self._calls())))
        self.trace_ops = list(self.ops)
        self.src = str(Path(__file__).resolve().parent.parent / "src")
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.peak_mb = 0.0
        self._refs: dict = {}
        self._spec: dict = {}

    def _calls(self, out: str = "run"):
        """(command, fixture, argv without --json) in cycle order: small and
        large alternate so a cut cycle stays balanced."""
        w = self.work
        calls = []
        for make in (
            lambda fx, a, b: ("distance", ["distance", a, b]),
            lambda fx, a, b: ("map", ["map", a, b, "--spd-canonical",
                                      "--out", str(w / f"{out}_tmap_{fx}.json")]),
            lambda fx, a, b: ("map", ["map", a, b, "--check-only"]),
            lambda fx, a, b: ("geodesic", ["geodesic", a, b,
                                           "--out-prefix", str(w / f"{out}_gamma_{fx}")]),
            lambda fx, a, b: ("barycenter", ["barycenter", a, b,
                                             "--out", str(w / f"{out}_bc_{fx}.json")]),
        ):
            for fx in ("small", "large"):
                cmd, argv = make(fx, str(w / f"{fx}_a.json"), str(w / f"{fx}_b.json"))
                calls.append((cmd, fx, argv))
        calls.append(("gp", "gp", ["gp", "1", "2", "--m", "250"]))
        return calls

    def argv(self, op, out: str = "run"):
        cmd, fx, argv = self._calls(out)[op]
        return cmd, fx, argv + ["--json", str(self.work / f"{out}_report_{op}.json")]

    def label(self, op) -> str:
        """Fixture, command and its mode flag, e.g. ``large map --check-only``."""
        cmd, fx, argv = self._calls()[op]
        flags = [a for a in argv if a in ("--spd-canonical", "--check-only")]
        return " ".join([fx, cmd, *flags])

    def seeded(self, op) -> bool:
        fx = self._calls()[op][1]
        return fx in self.fixtures and any(inp.seeded for inp in self.fixtures[fx])

    def kind(self, op) -> str:
        # the README pair and gp's order-2 integrated motion are singular
        return "fullrank" if self._calls()[op][1] == "large" else "singular"

    def prepare(self, op) -> Path:
        """Remove the report a previous call left (untimed)."""
        report = Path(self.argv(op)[2][-1])
        report.unlink(missing_ok=True)
        return report

    def run(self, op, report: Path) -> dict:
        argv = self.argv(op)[2]
        code, _, peak = run_child([sys.executable, "-m", "bwt.cli", *argv], self.env,
                                  self.work, self.work / "child.log")
        self.peak_mb = max(self.peak_mb, peak)
        return {"code": code, "report": report}

    def in_process(self, op):
        """Run the same argv through bwt.cli.main in this process (output
        files renamed); returns (exit code, report or None)."""
        from bwt import cli

        _, _, argv = self.argv(op, out="ref")
        report = Path(argv[-1])
        report.unlink(missing_ok=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        return code, (json.loads(report.read_text()) if report.exists() else None)

    def _expected_code(self, cmd: str, fx: str, argv) -> int:
        """The documented outcome, decided by the benchmark's own ranks and
        Schur complement: 4 for --spd-canonical without an SPD map, 3 for an
        extreme geodesic towards a higher rank, else 0."""
        if fx not in self.fixtures:
            return 0
        if fx not in self._spec:
            a, b = (inp.cov.data for inp in self.fixtures[fx])
            sa = checks.Spectrum(a)
            self._spec[fx] = (checks.schur_is_zero(checks.schur(sa, b)[0], b),
                              sa.rank >= checks.rank(b))
        spd, reachable = self._spec[fx]
        if cmd == "map" and "--spd-canonical" in argv and not spd:
            return 4
        if cmd == "geodesic" and not reachable:
            return 3
        return 0

    def check(self, op, _report, out: dict, ledger) -> None:
        import jsonschema
        from bwt.schemas import REPORT_SCHEMAS

        ledger.begin(self.label(op), self.seeded(op))
        cmd, fx, argv = self.argv(op)
        call = f"cli.{cmd}"
        want = self._expected_code(cmd, fx, argv)
        if out["code"] != want:
            ledger.fail(call, f"exit_{out['code']}")
            return
        if op not in self._refs:
            self._refs[op] = self.in_process(op)
        ref_code, ref_report = self._refs[op]
        if want != 0:
            ledger.record(call, [] if ref_code == want else ["in_process_exit"])
            return
        try:
            report = json.loads(out["report"].read_text())
            jsonschema.validate(report, REPORT_SCHEMAS[cmd])
        except (OSError, ValueError, jsonschema.ValidationError) as exc:
            ledger.fail(call, "check:report_" + _exc_kind(exc))
            return
        ledger.record(call, [] if ref_code == 0 and _same(report, ref_report) else ["in_process"])
