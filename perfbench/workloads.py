"""The benchmark's four workloads: fixtures, operation lists and output checks.

Each workload builds its inputs from one seed, then returns a fixed list of
operations. An operation is one closed-loop step: ``run`` is timed, and
``check`` (not timed) returns ``None`` when the output is right or a short
reason when it is not. Every random input is drawn from the workload seed;
the program only ever sees the generated states, files or ``--seed`` values.
"""
from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

import qcrkit as q
from qcrkit import defaults
from qcrkit.registers import Subsystem, SystemLayout

HERE = Path(__file__).resolve().parent
CLI_RUNNER = HERE / "cli_runner.py"

VERIFY_TOL = 1e-9     # fresh constructions, as in acceptance criteria 1-2
PROTOCOL_TOL = 1e-7   # after reduce/compose, as in criteria 3-4
PPT_TOL = 1e-9


class Op(NamedTuple):
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def derive_seeds(seed: int, n: int) -> list[int]:
    """n independent 32-bit seeds drawn from the workload seed."""
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(n)]


# -- shared checks -------------------------------------------------------


def same_state(got: q.QuantumState, want: q.QuantumState) -> bool:
    if got.layout != want.layout or got.is_pure != want.is_pure:
        return False
    if got.is_pure:
        return np.array_equal(got.vector, want.vector)
    return np.array_equal(got.matrix, want.matrix)


def verdict_problem(report: q.VerificationReport, tol: float) -> str | None:
    if not report.verdict:
        return f"verdict FAIL ({', '.join(report.failing_conditions)})"
    if report.max_coalition_distance > tol:
        return f"max coalition distance {report.max_coalition_distance:.3e} > {tol:g}"
    return None


def distribution_problem(probs: dict, d: int, n_info: int, exact: bool) -> str | None:
    """Uniform 1/d^N on the digit-sum-zero strings and nothing elsewhere.

    ``probs`` maps digit tuples to probabilities. ``exact`` demands ``==``
    (acceptance criteria 1 and 4, for states with dyadic entries); otherwise
    each probability must be within 1e-12 of 1/d^N.
    """
    support = set(q.index_set(n_info, 0, d).members)
    want = 1.0 / len(support)
    nonzero = {m for m, p in probs.items() if p > 0.0}
    if nonzero != support:
        return f"support has {len(nonzero)} strings, expected {len(support)}"
    for m in support:
        p = probs[m]
        if (p != want) if exact else abs(p - want) > 1e-12:
            return f"probability of {m} is {p!r}, expected {want!r}"
    return None


def as_dict(probs: np.ndarray) -> dict:
    return {m: float(probs[m]) for m in itertools.product(*map(range, probs.shape))}


def info_distribution(state: q.QuantumState) -> dict:
    return as_dict(q.measurement_distribution(state, state.layout.info_labels))


def warm_up() -> None:
    """One small call of each kind, so lazy imports and BLAS set-up are paid."""
    me = q.maximally_entangled(2)
    q.is_qcr(me)
    q.compose(me, me)
    q.reduce(q.build_ghz_qcr(2, 2), ["A1"])
    q.all_dealer_cuts_ppt(me)
    q.trace_distance(me, me)
    q.text_to_state(q.state_to_text(me))


# -- cli-1k: the qcr command line as subprocesses ---------------------------


@dataclass
class CliRun:
    code: int
    rss_mb: float
    spans_file: Path | None


class CliPipeline:
    """construct -> compose -> verify / ppt / measure / reduce / distance."""

    name = "cli-1k"

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.seed_a, self.seed_b = derive_seeds(seed, 2)
        self.seeds = {"private_a": self.seed_a, "private_b": self.seed_b}
        self.memory: dict[str, q.QuantumState] = {}
        self.traced = False
        self._count = 0
        # the first CLI start of a process pays for cold file caches
        self.cli("construct", "example", "--out", "warm.json")

    def path(self, name: str) -> Path:
        return self.work / name

    def cli(self, *argv: str) -> CliRun:
        self._count += 1
        spans = None
        if self.traced:
            spans = self.path(f"spans-{self._count}.json")
            cmd = [sys.executable, str(CLI_RUNNER), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "qcrkit", *argv]
        with open(self.path("stderr.txt"), "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.work, stdout=subprocess.DEVNULL, stderr=err)
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
            # report the running maximum over every child reaped so far
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CliRun(proc.returncode, usage.ru_maxrss / 1024.0, spans)

    def exit_problem(self, run: CliRun, want: int) -> str | None:
        if run.code == want:
            return None
        tail = self.path("stderr.txt").read_text(errors="replace").strip()[-200:]
        return f"exit code {run.code}, expected {want}: {tail}"

    def report(self, name: str) -> dict:
        return json.loads(self.path(name).read_text())

    def ops(self) -> list[Op]:
        ops = [
            Op("construct", "construct example",
               lambda: self.cli("construct", "example", "--out", "ex.json"),
               lambda r: self.exit_problem(r, 0) or self.file_problem(
                   "ex.json", q.build_example_state())),
        ]
        for tag, seed in (("a", self.seed_a), ("b", self.seed_b)):
            ops.append(Op(
                "construct", f"construct private {tag}",
                lambda seed=seed, tag=tag: self.cli(
                    "construct", "private", "--d", "2", "--shield-dims", "2,2", "--random",
                    "--seed", str(seed), "--out", f"p{tag}.json"),
                lambda r, seed=seed, tag=tag: self.exit_problem(r, 0) or self.file_problem(
                    f"p{tag}.json",
                    q.random_private_state(2, (2, 2), np.random.default_rng(seed))),
            ))
        for tag in ("a", "b"):
            ops.append(Op(
                "compose", f"compose p{tag} ex",
                lambda tag=tag: self.cli("compose", f"p{tag}.json", "ex.json",
                                         "--out", f"c{tag}.json",
                                         "--report", f"c{tag}.report.json"),
                lambda r, tag=tag: self.exit_problem(r, 0) or self.compose_problem(tag),
            ))
        ops += [
            Op("verify", "verify ca",
               lambda: self.cli("verify", "ca.json", "--report", "verify.json"),
               lambda r: self.exit_problem(r, 0) or verdict_doc_problem(
                   self.report("verify.json"))),
            Op("ppt", "ppt ca",
               lambda: self.cli("ppt", "ca.json", "--report", "ppt.json"),
               lambda r: self.exit_problem(r, 2) or ppt_doc_problem(self.report("ppt.json"), 7)),
            Op("measure", "measure ca",
               lambda: self.cli("measure", "ca.json", "--report", "measure.json"),
               lambda r: self.exit_problem(r, 0) or self.measure_problem()),
            Op("reduce", "reduce ca keep A2,A3",
               lambda: self.cli("reduce", "ca.json", "--keep", "A2,A3", "--out", "r.json",
                                "--report", "reduce.json"),
               lambda r: self.exit_problem(r, 0) or self.reduce_problem()),
            Op("distance", "distance ca cb",
               lambda: self.cli("distance", "ca.json", "cb.json", "--report", "distance.json"),
               lambda r: self.exit_problem(r, 0) or self.distance_problem()),
        ]
        return ops

    # output checks: every file the command line wrote must equal the
    # library's in-process result bit for bit

    def file_problem(self, name: str, want: q.QuantumState) -> str | None:
        got = q.read_state(self.path(name))
        self.memory[name] = got
        return None if same_state(got, want) else f"{name} differs from the library's state"

    def compose_problem(self, tag: str) -> str | None:
        doc = self.report(f"c{tag}.report.json")
        problem = verdict_doc_problem(doc["verification"])
        if problem:
            return problem
        want, _ = q.compose(self.memory[f"p{tag}.json"], self.memory["ex.json"], check=False)
        self.memory[f"c{tag}"] = want
        got = q.read_state(self.path(f"c{tag}.json"))
        return None if same_state(got, want) else f"c{tag}.json differs from library compose"

    def measure_problem(self) -> str | None:
        state = self.memory["ca"]
        dist = self.report("measure.json")["distribution"]
        got = {tuple(int(c) for c in key): p for key, p in dist.items()}
        want = info_distribution(state)
        if any(got.get(m, 0.0) != p for m, p in want.items() if p > defaults.PROB_FLOOR):
            return "measure report differs from the library's distribution"
        layout = state.layout
        return distribution_problem(got, layout.qudit_dim, len(layout.info_labels), exact=False)

    def reduce_problem(self) -> str | None:
        doc = self.report("reduce.json")
        if not doc["all_branches_pass"]:
            return "a reduced branch failed verification"
        for branch in doc["branches"]:
            problem = verdict_doc_problem(branch["verification"])
            if problem:
                return problem
        want = q.reduce(self.memory["ca"], ["A1"], check=False)
        if len(want) != len(doc["branches"]):
            return f"{len(doc['branches'])} branches, library gives {len(want)}"
        for oc in want:
            name = f"r.b{''.join(map(str, oc.digits))}.json"
            if not same_state(q.read_state(self.path(name)), oc.state):
                return f"{name} differs from library reduce"
        return None

    def distance_problem(self) -> str | None:
        value = self.report("distance.json")["value"]
        want = q.trace_distance(self.memory["ca"], self.memory["cb"])
        if not 0.0 < value <= 2.0 or abs(value - want) > 1e-12:
            return f"distance {value!r}, library gives {want!r}"
        return None


def verdict_doc_problem(doc: dict) -> str | None:
    if not doc["verdict"]:
        return f"verdict FAIL ({', '.join(doc['failing_conditions'])})"
    worst = max((c["max_distance"] for c in doc["condition_ii"]), default=0.0)
    if worst > doc["tol"]:
        return f"max coalition distance {worst:.3e} > {doc['tol']:g}"
    return None


def ppt_doc_problem(doc: dict, cuts: int) -> str | None:
    """The 1024-dim composite is non-PPT on some dealer cut (exit code 2)."""
    if len(doc["cuts"]) != cuts:
        return f"{len(doc['cuts'])} cuts, expected {cuts}"
    if doc["all_ppt"]:
        return "composite reported PPT on every cut"
    eigs = [c["min_eigenvalue"] for c in doc["cuts"]]
    if not all(-1.0 <= e <= 1.0 for e in eigs):
        return f"minimum eigenvalue out of range: {eigs}"
    if any(c["ppt"] != (c["min_eigenvalue"] >= -doc["tol"]) for c in doc["cuts"]):
        return "cut flag disagrees with its minimum eigenvalue"
    return None


# -- certify-density-1k: library calls on 1024-dim density states ----------


class CertifyDensity:
    name = "certify-density-1k"

    def __init__(self, seed: int, work: Path):
        seed_a, seed_b = derive_seeds(seed, 2)
        self.seeds = {"private_a": seed_a, "private_b": seed_b}
        self.example = q.build_example_state()
        self.private = q.random_private_state(2, (2, 2), np.random.default_rng(seed_a))
        other = q.random_private_state(2, (2, 2), np.random.default_rng(seed_b))
        self.composite, _ = q.compose(self.private, self.example, check=False)
        self.other, _ = q.compose(other, self.example, check=False)
        self.expanded = q.expand_from_private([q.maximally_entangled(2)] * 5, check=False)
        warm_up()

    def ops(self) -> list[Op]:
        a, b, e = self.composite, self.other, self.expanded
        return [
            Op("verify", "is_qcr composite (rank 4)",
               lambda: q.is_qcr(a, tol=VERIFY_TOL),
               lambda r: verdict_problem(r, VERIFY_TOL)),
            Op("verify", "is_qcr expansion of 5 pairs (rank 1)",
               lambda: q.is_qcr(e, tol=VERIFY_TOL),
               lambda r: verdict_problem(r, VERIFY_TOL)),
            Op("reduce", "reduce composite, A1 out",
               lambda: q.reduce(a, ["A1"], check=True, tol=PROTOCOL_TOL),
               lambda r: branches_problem(r, 2)),
            Op("compose", "compose private example",
               lambda: q.compose(self.private, self.example, check=True, tol=PROTOCOL_TOL),
               lambda r: None if same_state(r[0], a) else "compose differs from fixture"),
            Op("ppt", "all_dealer_cuts_ppt composite",
               lambda: q.all_dealer_cuts_ppt(a, tol=PPT_TOL),
               lambda r: ppt_doc_problem(r.to_dict(), 7)),
            Op("distance", "trace_distance composites",
               lambda: q.trace_distance(a, b),
               lambda r: eig_distance_problem(r, a, b)),
        ]


def branches_problem(outcomes, count: int) -> str | None:
    """Reduction branches: expected count, probabilities sum to 1, each certified."""
    if len(outcomes) != count:
        return f"{len(outcomes)} branches, expected {count}"
    total = sum(oc.probability for oc in outcomes)
    if abs(total - 1.0) > 1e-9:
        return f"branch probabilities sum to {total!r}"
    for oc in outcomes:
        problem = verdict_problem(q.is_qcr(oc.state, tol=PROTOCOL_TOL), PROTOCOL_TOL)
        if problem:
            return f"branch {oc.digits}: {problem}"
    return None


def eig_distance_problem(value: float, a: q.QuantumState, b: q.QuantumState) -> str | None:
    """Compare the SVD-based trace norm with the eigenvalues of the Hermitian difference."""
    want = float(np.abs(np.linalg.eigvalsh(a.density_matrix() - b.density_matrix())).sum())
    if not 0.0 < value <= 2.0 or abs(value - want) > 1e-9:
        return f"trace distance {value!r}, eigenvalue sum gives {want!r}"
    return None


# -- certify-pure-4k: library calls on pure vectors up to the cap -----------


class CertifyPure:
    name = "certify-pure-4k"

    def __init__(self, seed: int, work: Path):
        seed_twist, seed_a, seed_b = derive_seeds(seed, 3)
        self.seeds = {"twist": seed_twist, "pure_a": seed_a, "pure_b": seed_b}
        self.ghz_2_11 = q.build_ghz_qcr(2, 11)
        self.ghz_4_5 = q.build_ghz_qcr(4, 5)
        self.base = q.build_ghz_qcr(2, 5, q.ShieldSeed.basis_zero((2,) * 6))
        self.twist = q.random_party_twist(self.base.layout, np.random.default_rng(seed_twist))
        self.twisted, _ = q.build_twisted_qcr(self.base, self.twist)
        self.pure_a, self.pure_b = (
            q.build_ghz_qcr(2, 4, q.ShieldSeed.random((2,) * 5, np.random.default_rng(s),
                                                      pure=True))
            for s in (seed_a, seed_b)
        )
        warm_up()

    def ops(self) -> list[Op]:
        a, b = self.pure_a, self.pure_b
        return [
            Op("verify", "is_qcr ghz(2,11)",
               lambda: q.is_qcr(self.ghz_2_11, tol=VERIFY_TOL),
               lambda r: verdict_problem(r, VERIFY_TOL)),
            Op("verify", "is_qcr ghz(4,5)",
               lambda: q.is_qcr(self.ghz_4_5, tol=VERIFY_TOL),
               lambda r: verdict_problem(r, VERIFY_TOL)),
            Op("construct", "build_twisted_qcr d=2 n=5",
               lambda: q.build_twisted_qcr(self.base, self.twist, tol=VERIFY_TOL),
               lambda r: verdict_problem(r[1], VERIFY_TOL)
               or (None if same_state(r[0], self.twisted) else "twisted state changed")),
            Op("reduce", "reduce twisted, A1 A2 out",
               lambda: q.reduce(self.twisted, ["A1", "A2"], check=True, tol=PROTOCOL_TOL),
               lambda r: branches_problem(r, 4)),
            Op("distance", "trace_distance pure 1024",
               lambda: q.trace_distance(a, b),
               lambda r: pure_distance_problem(r, a, b)),
        ]


def pure_distance_problem(value: float, a: q.QuantumState, b: q.QuantumState) -> str | None:
    overlap = abs(np.vdot(a.vector, b.vector)) ** 2
    want = 2.0 * np.sqrt(max(0.0, 1.0 - overlap))
    if abs(value - want) > 1e-9:
        return f"trace distance {value!r}, closed form gives {want!r}"
    return None


# -- sweep-small: hundreds of calls on states of at most 256 dimensions -------

# dyadic fixtures whose statistics acceptance criteria 1 and 4 hold exact
_EXACT = {"example", "max_ent(2)", "ghz(2,2)"}


class SweepSmall:
    name = "sweep-small"

    def __init__(self, seed: int, work: Path):
        fixture_seed, separable_seed = derive_seeds(seed, 2)
        self.seeds = {"private": fixture_seed, "separable": separable_seed}
        rng = np.random.default_rng(fixture_seed)
        fixtures = {}
        for d in (2, 3):
            for k in range(20):
                fixtures[f"private(d={d})#{k}"] = q.random_private_state(d, (d, d), rng)
        fixtures["example"] = q.build_example_state()
        fixtures["max_ent(2)"] = q.maximally_entangled(2)
        for d, n in ((2, 2), (2, 3), (3, 2)):
            fixtures[f"ghz({d},{n})"] = q.build_ghz_qcr(d, n)
        self.fixtures = fixtures
        # the four-register layout of acceptance criterion 6
        layout = SystemLayout((
            Subsystem("D.a", "D", "shield", 2),
            Subsystem("A1.a", "A1", "shield", 2),
            Subsystem("D.b", "D", "shield", 2),
            Subsystem("A2.b", "A2", "shield", 2),
        ))
        rng = np.random.default_rng(separable_seed)
        self.separable = [
            q.QuantumState(layout, matrix=np.kron(q.random_separable_density(2, 2, rng),
                                                  q.random_separable_density(2, 2, rng)))
            for _ in range(100)
        ]
        warm_up()

    def ops(self) -> list[Op]:
        ops = []
        for name, state in self.fixtures.items():
            ops.append(Op("verify", f"is_qcr {name}",
                          lambda s=state: q.is_qcr(s, tol=VERIFY_TOL),
                          lambda r: verdict_problem(r, VERIFY_TOL)))
            ops.append(Op("measure", f"measure {name}",
                          lambda s=state: q.measurement_distribution(s, s.layout.info_labels),
                          lambda r, s=state, name=name: distribution_problem(
                              as_dict(r), s.layout.qudit_dim, len(s.layout.info_labels),
                              exact=name in _EXACT)))
        for name, state in self.fixtures.items():
            players = state.layout.players
            for size in range(1, len(players)):
                for keep in itertools.combinations(players, size):
                    out = [p for p in players if p not in keep]
                    ops.append(Op("reduce", f"reduce {name} keep {','.join(keep)}",
                                  lambda s=state, out=out: reduce_and_verify(s, out),
                                  lambda r: None if all(r) else "a branch failed verification"))
        for (na, a), (nb, b) in itertools.product(self.fixtures.items(), repeat=2):
            if a.layout.qudit_dim != b.layout.qudit_dim or a.dim * b.dim > 256:
                continue
            exact = na in _EXACT and nb in _EXACT
            ops.append(Op("compose", f"compose {na} {nb}",
                          lambda a=a, b=b: compose_and_verify(a, b),
                          lambda r, exact=exact: compose_problem(r, exact)))
        for k, state in enumerate(self.separable):
            ops.append(Op("ppt", f"ppt separable #{k}",
                          lambda s=state: q.all_dealer_cuts_ppt(s, tol=PPT_TOL),
                          separable_problem))
        for name, state in self.fixtures.items():
            ops.append(Op("statefile", f"round trip {name}",
                          lambda s=state: q.text_to_state(q.state_to_text(s)),
                          lambda r, s=state: None if same_state(r, s) else "round trip differs"))
        return ops


def reduce_and_verify(state: q.QuantumState, out: list[str]) -> list[bool]:
    """Criterion 3: measure out players, then certify every branch."""
    return [q.is_qcr(oc.state, tol=PROTOCOL_TOL).verdict
            for oc in q.reduce(state, out, check=False)]


def compose_and_verify(a: q.QuantumState, b: q.QuantumState):
    """Criterion 4: compose certified inputs, then certify the output."""
    merged, _ = q.compose(a, b, tol=PROTOCOL_TOL)
    return merged, q.is_qcr(merged, tol=PROTOCOL_TOL)


def compose_problem(result, exact: bool) -> str | None:
    merged, report = result
    layout = merged.layout
    return verdict_problem(report, PROTOCOL_TOL) or distribution_problem(
        info_distribution(merged), layout.qudit_dim, len(layout.info_labels), exact)


def separable_problem(report: q.PptReport) -> str | None:
    low = min(c.min_eigenvalue for c in report.cuts)
    if not report.all_ppt or low < -PPT_TOL:
        return f"separable product flagged non-PPT (min eigenvalue {low:.3e})"
    return None


WORKLOADS = {w.name: w for w in (CliPipeline, CertifyDensity, CertifyPure, SweepSmall)}
