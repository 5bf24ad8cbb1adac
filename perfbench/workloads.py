"""The three seeded workloads: set-up, inputs, timed loop and correctness gate.

Every workload uses the five generator pairs of the test suite. Inputs come
only from the seed. A workload's constructor is the set-up that `setup_s`
measures; `inputs` and `check` run off the clock, `run` is the timed phase.
"""

from __future__ import annotations

import io
import math
import random
import statistics
import time
from array import array

import checks

PAIRS = ((2, 3), (2, 5), (3, 5), (2, 12), (6, 10))
DECADES = (2, 3, 4, 5)
WALK_STEPS = 10_000
KEEP = 7  # scaled latencies kept per input, from its last visits
GAUGE_EVERY_NS = 20_000_000  # workload time between two readings of the host-speed gauge
# The gauge's two parts take these times on a 2-vCPU Intel Xeon VM when nothing else holds the core.
COMPUTE_NOMINAL_NS = 600_000
MEMORY_NOMINAL_NS = 350_000

# Additive-recurrence (R2) steps: 1/g and 1/g**2 for the plastic number g.
_R2 = (0.7548776662466927, 0.5698402909980532)


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class Gauge:
    """Host speed, read from fixed pieces of pure-Python work that do not touch the library.

    On a shared host the speed of the same code drifts by a factor of two,
    in spells from a tenth of a second to half a minute, so a whole run can
    fall into a slow one. Code slows down alike with work of its own kind: a
    tight compute loop keeps its ratio to a `next_point` step within about
    2 % across slow and fast spells, while either alone moves by tens of
    percent. Code that waits more on memory slows down less; a `verify` call
    tracks the geometric mean of the compute loop and a loop of scattered
    reads over 4 MiB, weighted by `memory_share`. Scaled by the compute loop
    alone, ten runs of `verify` spread by 0.08 in ops_per_s and 0.12 in
    op_p99_us; scaled by the mean, five runs spread by 0.014 and 0.056.
    """

    def __init__(self, memory_share: float = 0.0):
        self.memory_share = memory_share
        if memory_share:
            self.pool = bytearray(range(256)) * (1 << 14)  # 4 MiB, every page touched
            rng = random.Random(0)
            self.scattered = [rng.randrange(len(self.pool)) for _ in range(3000)]

    def slowdown(self) -> float:
        """The host's time for the gauge work over its nominal time: 1 on a host running at full speed."""
        t0 = time.perf_counter_ns()
        acc = 0
        cells = {}
        for i in range(1500):
            cell = _Cell(i, 3 * i + 1)
            cells[i & 63] = cell
            acc += (7 * cell.a ^ cell.b) % 97 + len((cell.a, cell.b))
        t1 = time.perf_counter_ns()
        slowdown = (t1 - t0) / COMPUTE_NOMINAL_NS
        if not self.memory_share:
            return slowdown
        pool = self.pool
        for at in self.scattered:
            acc += pool[at]
        memory = (time.perf_counter_ns() - t1) / MEMORY_NOMINAL_NS
        return slowdown ** (1 - self.memory_share) * memory ** self.memory_share


class Run:
    """Outcome counters and scaled latencies of one timed phase.

    A workload cycles through a fixed list of seeded inputs, pass after pass,
    and reports the latency of each operation, answered or refused, through
    `record`. Every GAUGE_EVERY_NS the loop calls `gauge`, which reads the
    host-speed gauge and divides the latencies recorded since the last
    reading by the mean slowdown of the two readings: each operation's time
    on a host running at the gauge's nominal speed. A slow spell of the host
    slows the gauge alike and cancels out; a change that makes the library
    slower does not touch the gauge and shows in full.

    Each input keeps its scaled latencies from its last KEEP visits. The
    percentiles are taken over the inputs' medians of those, so an operation
    caught by a change of the host's speed between two readings, or by a
    stray pause, does not move them; a slow input is slow on every visit.
    """

    def __init__(self, inputs: int, host: Gauge):
        self.inputs = inputs
        self.host = host
        self.answered = bytearray(inputs)  # 1 where the input's first answer was a success
        self.attempted = 0
        self.ok = 0
        self.refused = 0  # typed LatticeError, e.g. BudgetExceeded: the library declining, not failing
        self.wrong = 0  # wrong answer or untyped exception
        self.refused_by_decade = {d: 0 for d in DECADES}
        self.problems: list[str] = []
        self.elapsed_s = 0.0
        self.kept = array("d", bytes(8 * KEEP * inputs))  # input i's visits in slots KEEP*i ...
        self.visits = array("q", bytes(8 * inputs))  # answered visits of each input
        self.busy_ns = 0.0  # scaled time of every timed operation
        self.pending: list[tuple[int, int, bool]] = []  # (input, ns, answered) since the last reading
        self.gauges: list[float] = []  # slowdowns read

    def start(self, seconds: float) -> int:
        """Open the timed phase; returns its deadline in perf_counter_ns."""
        self.gauges.append(self.host.slowdown())
        self.t0 = time.perf_counter_ns()
        self.next_gauge = self.t0 + GAUGE_EVERY_NS
        return self.t0 + int(seconds * 1e9)

    def record(self, idx: int, ns: int, answered: bool) -> None:
        self.pending.append((idx, ns, answered))

    def gauge(self) -> None:
        """Read the gauge; scale the latencies pending since the last reading by the mean of the two."""
        before = self.gauges[-1]
        self.gauges.append(self.host.slowdown())
        scale = 2 / (before + self.gauges[-1])
        kept, visits = self.kept, self.visits
        for idx, ns, answered in self.pending:
            self.busy_ns += ns * scale
            if answered:
                kept[KEEP * idx + visits[idx] % KEEP] = ns * scale
                visits[idx] += 1
        self.pending.clear()
        self.next_gauge = time.perf_counter_ns() + GAUGE_EVERY_NS

    def finish(self) -> None:
        self.gauge()
        self.elapsed_s = (time.perf_counter_ns() - self.t0) / 1e9

    def problem(self, text: str) -> None:
        self.wrong += 1
        if len(self.problems) < 10:
            self.problems.append(text)

    def summary(self) -> dict:
        """Scaled figures of the timed phase; they need every input timed once.

        `ops_per_s` is answered operations over the scaled time of every
        timed operation, refused ones included. The percentiles (nearest
        rank) are over the answered inputs' median latencies.
        """
        out = {"inputs": self.inputs, "passes": self.attempted // self.inputs,
               "answered": sum(self.answered), "kept_per_input": KEEP,
               "mean_ops_per_s": self.ok / self.elapsed_s if self.elapsed_s else 0.0,
               "gauge_readings": len(self.gauges), "gauge_median_slowdown": statistics.median(self.gauges)}
        if not out["passes"]:
            return out
        kept = self.kept
        ranked = sorted(
            statistics.median(kept[KEEP * i: KEEP * i + min(seen, KEEP)])
            for i, seen in enumerate(self.visits) if self.answered[i] and seen
        )
        if not ranked:
            return out
        n = len(ranked)
        p99_at = min(n - 1, math.ceil(0.99 * n) - 1)
        out.update({
            "samples": n,
            "ops_per_s": self.ok / (self.busy_ns / 1e9),
            "p50_us": statistics.median(ranked) / 1e3,
            "p99_us": ranked[p99_at] / 1e3,
            "samples_above_p99": n - p99_at - 1,
        })
        return out


def _decade(p) -> int:
    return min(max(int(math.log10(max(p[0], p[1], 1))), DECADES[0]), DECADES[-1])


def log_uniform_queries(rng: random.Random, count: int, lib) -> list:
    """(pair index, direction, point) triples; each coordinate log-uniform in [1e2, 1e6).

    Queries cycle through the ten (pair, next/prev) cells, so directions
    alternate. Within a cell the coordinates follow the R2 low-discrepancy
    sequence from a seeded random start: every prefix covers the decades
    evenly, so the share of queries past the bit-budget wall, and with it the
    throughput, depends little on the seed.
    """
    starts = [(rng.random(), rng.random()) for _ in range(2 * len(PAIRS))]
    out = []
    for n in range(count):
        cell = n % len(starts)
        m = n // len(starts)
        u = (starts[cell][0] + m * _R2[0]) % 1.0
        w = (starts[cell][1] + m * _R2[1]) % 1.0
        point = lib.GridPoint(int(10 ** (2 + 4 * u)), int(10 ** (2 + 4 * w)))
        out.append((cell // 2, cell % 2, point))
    return out


def warm_to_wall(lib, table) -> None:
    """Extend a table row by row until the next row would exceed the bit budget."""
    try:
        while True:
            table.extend_to(table.depth + 1)
    except lib.BudgetExceeded:
        pass


class Walk:
    """Repeated next_point walks on warm tables, the "enumerate S in order" use.

    Each pair walks WALK_STEPS steps from its point of seeded rank below
    5000. Coordinates stay in the low hundreds, so the band lookup stays at
    shallow levels, the tables never grow, and per-call overhead in successor
    is nearly all the work. Every pair takes the same number of steps, so the
    mix of pairs, which sets the latency tail, does not depend on the seed.
    """

    gauge_memory_share = 0.0

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.tables = [lib.ConvergentTable(lib.validate_pair(*p)) for p in PAIRS]
        far = lib.GridPoint(1000, 1000)
        for table in self.tables:
            lib.next_point(table, far)
            lib.prev_point(table, far)
        self.seed = seed

    def inputs(self) -> None:
        rng = random.Random(self.seed)
        self.skips = [rng.randrange(5000) for _ in PAIRS]
        self.starts = []
        for pair, skip in zip(PAIRS, self.skips):
            stream = self.lib.SortedStream(self.lib.validate_pair(*pair))
            for _ in range(skip):
                next(stream)
            self.starts.append(next(stream))
        self.size = WALK_STEPS * len(PAIRS)  # input = (pair, step number)
        self.walks = [None] * len(PAIRS)

    def run(self, seconds: float, run: Run, stop) -> None:
        next_point = self.lib.next_point
        clock = time.perf_counter_ns
        record = run.record
        deadline = run.start(seconds)
        done = False
        while not done:
            for k, table in enumerate(self.tables):
                first = self.walks[k]
                p = self.starts[k]
                walk = [p] if first is None else None
                for n in range(1, WALK_STEPS + 1):
                    run.attempted += 1
                    t0 = clock()
                    try:
                        p = next_point(table, p)
                    except Exception as exc:  # any raise from a walk step is a bug
                        run.problem(f"walk {PAIRS[k]} step {n}: {exc!r}")
                        done = True
                        break
                    t1 = clock()
                    record(k * WALK_STEPS + n - 1, t1 - t0, True)
                    run.ok += 1
                    if walk is not None:
                        walk.append(p)
                        run.answered[k * WALK_STEPS + n - 1] = 1
                    elif p != first[n]:
                        run.problem(f"walk {PAIRS[k]} step {n}: {p} differs from the first pass {first[n]}")
                        done = True
                        break
                    if t1 >= run.next_gauge:
                        run.gauge()
                    if t1 >= deadline or stop():
                        done = True
                        break
                if walk is not None:
                    self.walks[k] = walk
                if done:
                    break
        run.finish()

    def check(self, run: Run) -> int:
        """The walk equals the heap-oracle prefix, and prev_point walks it back."""
        lib = self.lib
        checked = 0
        for k, walk in enumerate(self.walks):
            if walk is None:
                continue
            stream = lib.SortedStream(lib.validate_pair(*PAIRS[k]))
            for _ in range(self.skips[k]):
                next(stream)
            for n, p in enumerate(walk):
                want = next(stream)
                if p != want:
                    run.problem(f"walk {PAIRS[k]} step {n}: engine {p}, oracle {want}")
                    break
            table = self.tables[k]
            for n in range(len(walk) - 1, 0, -1):
                back = lib.prev_point(table, walk[n])
                if back != walk[n - 1]:
                    run.problem(f"prev_point{walk[n]} for {PAIRS[k]} is {back}, want {walk[n - 1]}")
                    break
            checked += len(walk)
        return checked


class RandomQueries:
    """Independent next/prev queries on tables warmed to the bit-budget wall.

    Reaches deep levels and the tilde (predecessor) path. Queries past the
    wall are refused fast with BudgetExceeded; the share of answered queries
    is where a fix for the wall shows.
    """

    count = 10_000
    gauge_memory_share = 0.0

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        self.pairs = [lib.validate_pair(*p) for p in PAIRS]
        self.tables = [lib.ConvergentTable(pair) for pair in self.pairs]
        for table in self.tables:
            warm_to_wall(lib, table)
        self.next_point, self.prev_point = lib.next_point, lib.prev_point

    def inputs(self) -> None:
        self.queries = log_uniform_queries(random.Random(self.seed), self.count, self.lib)
        self.size = len(self.queries)
        self.answers: list = [None] * self.size

    def run(self, seconds: float, run: Run, stop) -> None:
        lattice_error = self.lib.LatticeError
        budget_exceeded = self.lib.BudgetExceeded
        queries, answers, answer = self.queries, self.answers, self.answer
        clock = time.perf_counter_ns
        record = run.record
        deadline = run.start(seconds)
        n = 0
        while True:
            idx = n % len(queries)
            pair_index, direction, point = queries[idx]
            run.attempted += 1
            t0 = clock()
            try:
                got = answer(pair_index, direction, point)
            except lattice_error as exc:
                t1 = clock()
                run.refused += 1
                if isinstance(exc, budget_exceeded):
                    run.refused_by_decade[_decade(point)] += 1
                got = type(exc).__name__
            except Exception as exc:  # an untyped raise is a bug, not a refusal
                t1 = clock()
                run.problem(f"{PAIRS[pair_index]} {('next', 'prev')[direction]}{tuple(point)}: {exc!r}")
                got = repr(exc)
            else:
                t1 = clock()
                run.ok += 1
            record(idx, t1 - t0, isinstance(got, tuple))
            if n < len(queries):
                answers[idx] = got
                run.answered[idx] = isinstance(got, tuple)
            elif got != answers[idx]:
                run.problem(f"query {idx} gave {got}, first pass gave {answers[idx]}")
            n += 1
            if t1 >= run.next_gauge:
                run.gauge()
            if t1 >= deadline or stop():
                break
        run.finish()
        self.done = min(n, len(queries))

    def check(self, run: Run) -> int:
        """Inverse property and exact order for every answer; strip search on a seeded sample."""
        lib = self.lib
        core_arith = lib.core_arith
        tables = [lib.ConvergentTable(pair) for pair in self.pairs]
        answered = []
        for idx in range(self.done):
            pair_index, direction, p = self.queries[idx]
            q = self.answers[idx]
            if not isinstance(q, tuple):
                continue
            pair, table = self.pairs[pair_index], tables[pair_index]
            want_sign = 1 if direction == 0 else -1
            if checks.order(core_arith, pair, q, p) != want_sign:
                run.problem(f"{PAIRS[pair_index]} query {tuple(p)}: answer {tuple(q)} is on the wrong side")
                continue
            try:
                back = lib.prev_point(table, q) if direction == 0 else lib.next_point(table, q)
            except lib.BudgetExceeded:
                continue  # the inverse query crosses the wall; order and strip checks still apply
            if back != p:
                run.problem(f"{PAIRS[pair_index]} query {tuple(p)}: answer {tuple(q)} maps back to {tuple(back)}")
                continue
            answered.append(idx)
        rng = random.Random(self.seed + 1)
        for idx in rng.sample(answered, min(len(answered), 6)):
            pair_index, direction, p = self.queries[idx]
            want = checks.strip_neighbour(core_arith, self.pairs[pair_index], p, direction == 0)
            if tuple(self.answers[idx]) != want:
                run.problem(f"{PAIRS[pair_index]} query {tuple(p)}: engine {tuple(self.answers[idx])}, strip search {want}")
        return self.done

    def answer(self, pair_index, direction, point):
        table = self.tables[pair_index]
        return self.next_point(table, point) if direction == 0 else self.prev_point(table, point)


class Verify:
    """One in-process `lattice-succ verify` per query, cycling through the pairs.

    The only workload that runs tiling, sequences and oracle on the clock.
    Windows and scan lengths are drawn per input from the seed. There are
    1000 inputs, enough for a 99th percentile, and each call is small enough
    that a run times every input several times.
    """

    count = 1_000
    gauge_memory_share = 0.5

    def __init__(self, lib, seed: int):
        import lattice_succ.cli

        self.cli = lattice_succ.cli
        self.seed = seed

    def inputs(self) -> None:
        rng = random.Random(self.seed)
        self.argvs = []
        for n in range(self.count):
            p1, p2 = PAIRS[n % len(PAIRS)]
            w, h = rng.randrange(120, 201), rng.randrange(120, 201)
            self.argvs.append(["verify", "--p1", str(p1), "--p2", str(p2), "--window", f"{w}x{h}",
                               "--scan", str(rng.randrange(120, 241)), "--depth", "6"])
        self.size = len(self.argvs)

    def run(self, seconds: float, run: Run, stop) -> None:
        cli_run = self.cli.run
        clock = time.perf_counter_ns
        record = run.record
        deadline = run.start(seconds)
        n = 0
        while True:
            idx = n % len(self.argvs)
            argv = self.argvs[idx]
            run.attempted += 1
            t0 = clock()
            try:
                status = cli_run(argv, out=io.StringIO())
            except Exception as exc:  # cli.run must turn every error into an exit status
                t1 = clock()
                run.problem(f"{' '.join(argv)}: {exc!r}")
                status = None
            else:
                t1 = clock()
                if status == 0:
                    run.ok += 1
                    if n < len(self.argvs):
                        run.answered[idx] = 1
                elif status == 2:
                    run.refused += 1
                else:
                    run.problem(f"{' '.join(argv)}: exit status {status}")
            record(idx, t1 - t0, status == 0)
            n += 1
            if t1 >= run.next_gauge:
                run.gauge()
            if t1 >= deadline or stop():
                break
        run.finish()

    def check(self, run: Run) -> int:
        return 0  # the exit status, checked per call, is this workload's gate


WORKLOADS = {"walk": Walk, "random": RandomQueries, "verify": Verify}
