"""Output checks for one round of jobs; none of this is timed.

``Checker.failures(jobs, results)`` returns one reason per job, ``None``
for a job that passed. A job fails if ``cli.main`` raised, if its exit code
is wrong, or if its output fails the workload's check:

- ``statify``: exit 0 exactly when the certificate has every chart static;
- ``verify-theorem``: both sides agree, exit 0;
- ``check-static``: the verdict equals ``is_regular_sequence_on`` on the
  presentation kernel (criterion 5's independent side);
- ``jacobian``: the group order equals the spanning-tree count, a sympy
  determinant of the reduced Laplacian;
- ``chip-equiv``: pairs equivalent by construction are equivalent;
- ``firing-script``: a script exists exactly when ``chip-equiv`` says
  equivalent, and it replays under the benchmark's own Laplacian product.

Example 2's output bytes must hash to ``EXAMPLE2_SHA256`` for any seed. At
``PINS["seed"]`` every corpus job's output digest is pinned as well.
"""

import hashlib
import json
import pathlib

from corpus import fire, laplacian

EXAMPLE2_SHA256 = "d9bceeda685a8ace7aee03660f0b477e1a1a50a631495d9f0142a8398aeb81a1"
PINS = json.loads((pathlib.Path(__file__).parent / "pins.json").read_text())


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checker:
    """Checks outputs; caches each oracle verdict by job index."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.pins = PINS.get(workload) if seed == PINS["seed"] else None
        self._oracle = {}

    def _cached(self, i, compute):
        if i not in self._oracle:
            self._oracle[i] = compute()
        return self._oracle[i]

    def failures(self, jobs, results):
        reasons = []
        for i, (job, res) in enumerate(zip(jobs, results)):
            if res["error"] is not None:
                reasons.append("raised: " + res["error"].strip().splitlines()[-1])
                continue
            try:
                reason = self._check(i, job, res, results)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable output: {exc!r}"
            if reason is None and self.pins is not None and digest(res["out"])[:16] != self.pins[i]:
                reason = "output digest differs from the pinned one"
            reasons.append(reason)
        return reasons

    def _check(self, i, job, res, results):
        cmd, code = job["cmd"], res["code"]
        if self.workload == "example2":
            if digest(res["out"]) != EXAMPLE2_SHA256:
                return "Example 2 output differs from the recorded digest"
        out = json.loads(res["out"])
        if cmd == "statify":
            static = [chart["static"] for chart in out["charts"]]
            if not static or out["all_static"] != all(static):
                return "certificate verdict disagrees with its charts"
            return _exit(code, 0 if all(static) else 1)
        if cmd == "verify-theorem":
            if out["agrees"] is not True or out["all_static"] != all(c["static"] for c in out["charts"]):
                return "theorem sides disagree"
            return _exit(code, 0)
        if cmd == "check-static":
            if out["static"] != self._cached(i, lambda: _regular_sequence(job["arg"])):
                return "verdict differs from the regular-sequence test"
            return _exit(code, 0 if out["static"] else 1)
        meta = job["meta"]
        if cmd == "jacobian":
            order = 1
            for f in out["invariant_factors"]:
                order *= int(f)
            if order != self._cached(i, lambda: _spanning_trees(meta["n"], meta["edges"])):
                return "Jacobian order differs from the spanning-tree count"
            return _exit(code, 0)
        if cmd == "chip-equiv":
            if meta["constructed"] and not out["equivalent"]:
                return "a pair equivalent by construction was called inequivalent"
            return _exit(code, 0 if out["equivalent"] else 1)
        if cmd == "firing-script":
            script = out["script"]
            equiv_job = results[i - 1]
            if equiv_job["error"] is not None or (script is not None) != json.loads(equiv_job["out"])["equivalent"]:
                return "script existence disagrees with chip-equiv"
            lap = laplacian(meta["n"], meta["edges"])
            if script is not None and fire(lap, meta["d1"], [int(s) for s in script]) != meta["d2"]:
                return "firing script does not replay"
            return _exit(code, 0 if script is not None else 1)
        return f"no check for {cmd}"


def _exit(code, expected):
    return None if code == expected else f"exit code {code}, expected {expected}"


def _regular_sequence(arg):
    from statikit.jsonio import presentation_from_json
    from statikit.staticity import is_regular_sequence_on

    presentation = presentation_from_json(json.loads(arg))
    return is_regular_sequence_on(presentation.kernel(), tuple(range(presentation.chart.nvars)))


def _spanning_trees(n, edges):
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    reduced = [row[1:] for row in laplacian(n, edges)[1:]]
    return int(DomainMatrix([[ZZ(x) for x in row] for row in reduced], (n - 1, n - 1), ZZ).det())
