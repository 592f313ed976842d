"""Verification and statistics for perfbench.

Everything that decides whether an invocation counts as a failure, and
every statistic computed from the timings, lives here so that the
self-tests in ``test_checker.py`` exercise exactly the code the benchmark
runs.
"""

import hashlib
import json
import math


def sha256_file(path):
    """Hex SHA-256 of a file's bytes, or None if it cannot be read."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    except OSError:
        return None
    return h.hexdigest()


def check_document(path, kind):
    """Problem with a JSON document written by the simulator, or None.

    ``kind`` is ``"trace"`` (a non-empty Chrome-trace event array) or
    ``"metrics"`` (a non-empty flat object of numbers).
    """
    try:
        with open(path, "rb") as f:
            doc = json.loads(f.read())
    except (OSError, ValueError) as e:
        return f"{kind} document does not parse: {e}"
    if kind == "trace":
        if not isinstance(doc, list) or not doc:
            return "trace document is not a non-empty event array"
        if not all(isinstance(e, dict) and "ph" in e for e in doc):
            return "trace document holds a record without a phase"
    elif kind == "metrics":
        if not isinstance(doc, dict) or not doc:
            return "metrics document is not a non-empty object"
        if not all(isinstance(v, (int, float)) for v in doc.values()):
            return "metrics document holds a non-numeric value"
    else:
        raise ValueError(f"unknown document kind {kind!r}")
    return None


def grid_layout_problem(csv_path, cells):
    """Problem with a ``sweep`` CSV's cells, or None.

    ``cells`` lists the grid's cells as ``"seq_len,stacks,dataflow,arch"``
    in row order (None when unknown); the CSV's rows must name exactly
    those cells.
    """
    try:
        with open(csv_path) as f:
            rows = [line.split(",")[1:5] for line in f.read().splitlines()[1:] if line]
    except OSError as e:
        return f"sweep CSV unreadable: {e}"
    if cells is None:
        return "no cell list for this grid"
    if [",".join(r) for r in rows] != cells:
        return (f"sweep's CSV has {len(rows)} rows that do not match the probe's "
                f"{len(cells)} cells")
    return None


def invocation_problems(exit_code, outputs, expected):
    """Why one CLI invocation failed, as a list of reasons (empty if it
    passed).

    ``outputs`` maps each output name to the SHA-256 of what the
    invocation wrote (None when missing); ``expected`` maps the same names
    to the reference digests, or to None when no valid reference exists.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    for name, want in expected.items():
        got = outputs.get(name)
        if want is None:
            problems.append(f"{name}: no valid reference")
        elif got is None:
            problems.append(f"{name}: not written")
        elif got != want:
            problems.append(f"{name}: differs from the reference")
    return problems


class Tally:
    """Attempted and failed invocations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {'; '.join(problems)}")

    def merge(self, attempted, failed, reasons):
        """Add counts kept elsewhere (the probe's traced run)."""
        self.attempted += attempted
        self.failed += failed
        self.reasons += reasons[: max(0, 20 - len(self.reasons))]

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 1.0


def tail(samples, beyond=10):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n)``: the sample with exactly ``beyond``
    samples above it in sorted order, the share of samples at or below it
    in percent, and the sample count. With ``beyond`` or fewer samples
    the maximum is returned at the 100th percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return xs[-1], 100.0, n
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def digest(entries):
    """SHA-256 over ``(request id, output name, output digest)`` triples,
    in sorted order: one fingerprint of every simulated statistic a run
    produced, independent of timing."""
    h = hashlib.sha256()
    for rid, name, value in sorted(entries):
        h.update(f"{rid}\t{name}\t{value}\n".encode())
    return h.hexdigest()


def result_line(correct, attempted, failed, metrics, units):
    """The final JSON line: ``metrics`` maps names to values, ``units``
    names to units; both must hold exactly the same names."""
    if set(metrics) != set(units):
        raise ValueError(f"metrics {sorted(metrics)} do not match {sorted(units)}")
    out = {}
    for name in units:
        value = float(metrics[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": units[name]}
    return json.dumps(
        {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
         "metrics": out}
    )
