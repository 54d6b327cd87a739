"""One measured interpreter: import haarcay, build a workload's inputs, and
run closed-loop passes over them for a fixed time.

``run.py`` starts this script and reads the one JSON object it prints.  With
``--setup-only`` it stops after the inputs are built, so its set-up time is
a fresh-interpreter sample.

Times are taken on the ``Clock`` below and scaled to a fixed reference
speed.  On a shared machine the same computation takes up to 60% more CPU
time while other tenants load the processor, and such periods last from
seconds to many minutes, longer than a run.  So a ``SIGALRM`` tick runs a
fixed reference routine every ``TICK_S`` of wall time, all through the run,
and each time is multiplied by ``REF_CALL_S`` over what one reference call
cost while it was taken (at least ``LOCAL_CALLS`` calls around it).  A time
then reads as the CPU time the work takes when the reference routine costs
``REF_CALL_S``.  On a 2-CPU virtual machine, over 90 s of status passes,
this took the variation of one input's time from 19% to 7%, and of a
pass's from 15% to 4%.

The same tick enforces the per-verdict time limit on this scaled time, so
a verdict that hits it costs the same whatever the machine's load: it is
stopped, counts as undecided, and its time is the limit, to within one
tick.
"""

import argparse
import bisect
import json
import resource
import signal
import sys
import time
from pathlib import Path

TICK_S = 0.02
LOCAL_CALLS = 10
REF_CALL_S = 0.00055   # one reference call on a quiet core of the machine it was written on
_PERM = tuple((i * 7 + 3) % 31 for i in range(31))


def reference() -> int:
    """Fixed work like the program's inner loops: permutation composition
    on tuples, bit masks and a dict.  About 4% of the run's CPU time."""
    p, seen, mask = tuple(range(31)), {}, 0
    for i in range(300):
        p = tuple(_PERM[x] for x in p)
        mask = (mask << 1 | p[0] & 1) & 0xFFFFFFFF
        seen[mask & 255] = i
    return len(seen)


class TimeLimit(BaseException):
    """Raised in the main thread when a verdict runs past the time limit;
    a BaseException so that no handler inside haarcay swallows it."""


class Clock:
    """The work clock: this process's CPU time less the time spent in the
    reference routine.  Keeps each reference call's work time and cost to
    scale work times with."""

    def __init__(self):
        self.ref_s = 0.0
        self.tick_at: list[float] = []
        self.tick_cost: list[float] = []
        self.limit: tuple[float, float] | None = None   # (verdict start, limit in seconds)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def work(self) -> float:
        return time.process_time() - self.ref_s

    def scale(self, start: float, end: float) -> float:
        """``REF_CALL_S`` over the mean cost of the reference calls made
        while the work clock ran from ``start`` to ``end``, widened on both
        sides to at least ``LOCAL_CALLS`` calls."""
        n = len(self.tick_at)
        i, j = bisect.bisect_left(self.tick_at, start), bisect.bisect_right(self.tick_at, end)
        while j - i < LOCAL_CALLS and (i > 0 or j < n):
            i, j = max(0, i - 1), min(n, j + 1)
        return REF_CALL_S * (j - i) / sum(self.tick_cost[i:j]) if j > i else 1.0

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives while the last one runs
            return
        self._busy = True
        start = time.process_time()
        reference()
        cost = time.process_time() - start
        self.tick_at.append(start - self.ref_s)
        self.tick_cost.append(cost)
        self.ref_s += cost
        self._busy = False
        if self.limit is not None:
            start, limit_s = self.limit
            now = self.work()
            if (now - start) * self.scale(start, now) > limit_s:
                self.limit = None
                raise TimeLimit()


CLOCK = Clock()
CLOCK.start()  # before haarcay is imported, which set-up time counts

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402  (needs the source path above)
import workloads  # noqa: E402


class Recorder:
    """The ``call`` a workload pass goes through: times one entry-point call
    on the work clock and keeps its result summary for the checker."""

    def __init__(self, limit_s: float, tracer=None):
        self.limit_s = limit_s
        self.tracer = tracer
        self.traced = False
        self.pass_index = 0
        self.records: list[list] = []     # [traced, pass index, input id, start, end, state]
        self.outputs: dict[str, dict] = {}
        self.mismatched: list[str] = []

    def __call__(self, input_id, fn, summarize):
        if self.tracer is not None:
            self.tracer.input_id = input_id
        start = CLOCK.work()
        CLOCK.limit = (start, self.limit_s)
        try:
            try:
                result = fn()
            finally:
                CLOCK.limit = None
        except TimeLimit:
            self._record(input_id, start, "undecided")
            return None
        except Exception as exc:  # a verdict that raises is a wrong answer
            self._record(input_id, start, "error")
            self._keep(input_id, {"error": repr(exc)})
            return None
        end = CLOCK.work()
        summary, decided = summarize(result)
        self._record(input_id, start, "decided" if decided else "undecided", end)
        self._keep(input_id, summary)
        return result

    def _record(self, input_id: str, start: float, state: str, end: float | None = None) -> None:
        end = CLOCK.work() if end is None else end
        self.records.append([self.traced, self.pass_index, input_id, start, end, state])

    def scaled(self) -> list[list]:
        """[traced, pass index, input id, ms at the reference speed, state]"""
        return [[traced, index, input_id, (end - start) * CLOCK.scale(start, end) * 1000, state]
                for traced, index, input_id, start, end, state in self.records]

    def _keep(self, input_id: str, summary: dict) -> None:
        """Keep the first answer per input; a later pass that runs the same
        copy must repeat it."""
        text = json.dumps(summary, sort_keys=True)
        first = self.outputs.setdefault(input_id, json.loads(text))
        if json.dumps(first, sort_keys=True) != text and input_id not in self.mismatched:
            self.mismatched.append(input_id)


def peak_rss_mb() -> float:
    """This interpreter's peak resident set.  ``ru_maxrss`` would also count
    the parent's, which a forked child carries until it calls exec; the
    ``VmHWM`` of a fresh address space does not."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_passes(workload, recorder: Recorder, seconds: float) -> list[list[float]]:
    """[start, end] on the work clock of each whole pass, run until another
    would end past ``seconds`` of wall time; at least one."""
    passes: list[list[float]] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t0, w0 = time.perf_counter(), CLOCK.work()
        # the traced half runs the same copies as the untraced half
        workload.run_pass(recorder, len(passes))
        passes.append([w0, CLOCK.work()])
        recorder.pass_index += 1
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + max(walls) > seconds:
            return passes


def glue_seconds(passes: list[list[float]], records: list[list]) -> list[float]:
    """The time each untraced pass spent outside verdicts, at the reference
    speed over the whole pass."""
    inside = [0.0] * len(passes)
    for _, index, _, start, end, _ in records:
        if index < len(passes):  # not a traced pass
            inside[index] += end - start
    return [(end - start - verdicts) * CLOCK.scale(start, end)
            for (start, end), verdicts in zip(passes, inside)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]()
    workload.build(args.seed)
    setup_s = CLOCK.work() * CLOCK.scale(0.0, CLOCK.work())
    if args.setup_only:
        CLOCK.stop()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out: dict = {"setup_s": setup_s, "limit_s": workload.limit_s}
    if args.trace:
        # half the time untraced, half traced: the difference is the overhead
        tracer = spans.Tracer(CLOCK.work)
        recorder = Recorder(workload.limit_s, tracer)
        passes = run_passes(workload, recorder, args.seconds / 2)
        tracer.install(callers=(workloads,))
        recorder.traced = True
        try:
            traced = run_passes(workload, recorder, args.seconds / 2)
        finally:
            tracer.uninstall()
        CLOCK.stop()
        out["layers"] = tracer.metrics(traced, passes, CLOCK.scale)
        tracer.write(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        recorder = Recorder(workload.limit_s)
        passes = run_passes(workload, recorder, args.seconds)
        CLOCK.stop()
    out["peak_rss_mb"] = peak_rss_mb()
    out.update(glue_s=glue_seconds(passes, recorder.records), records=recorder.scaled(),
               outputs=recorder.outputs, mismatched=recorder.mismatched,
               check=workload.check_data())
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
