"""End-to-end benchmark of the storage service at SS512.

Run from the repository root::

    python3 perfbench/run.py --workload read --seed 1 --seconds 15 --trace 0

It starts ``python -m repro serve`` as its own process, drives it over
at most two pipelined connections through the public clients, checks
every reply, and prints a report whose last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones (see ``BENCHMARK.json``), times and
rates rescaled to a reference host speed (``hostspeed.py``). With
``--trace 1`` the run instead measures one untraced and one traced
window against a server whose layer functions are wrapped, and reports
the per-layer metrics (see ``tracing.py``).

Exit codes: 0 = every check passed; 1 = a correctness gate failed;
2 = the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
#: Full setups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Server RSS sampling period inside the measured window.
RSS_PERIOD = 0.1
#: Time for the traced server to act on a window signal.
SIGNAL_SETTLE = 0.1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("read", "mixed", "revoke"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preset", default="SS512",
                        help="pairing preset (the smoke test uses TOY80)")
    parser.add_argument("--sabotage", action="store_true",
                        help="expect a wrong digest in the measured window "
                             "(the smoke test's check that gates fire)")
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Run:
    """One invocation: setups, the measured window(s), the report."""

    def __init__(self, args):
        from repro.ec.params import PRESETS

        from workloads import WORKLOADS

        self.args = args
        self.params = PRESETS[args.preset]
        self.workload = WORKLOADS[args.workload](args.seed)
        self.scratch = REPO / ".perfbench" / f"run-{time.time_ns()}"
        self.server = None
        self.world = None

    def say(self, text: str) -> None:
        print(text, flush=True)

    async def setup(self, index: int, launcher=None, spans_out=None) -> tuple:
        """Spawn a server on a fresh store and bring the world up to the
        first measured op; returns ``(wall seconds, host scale)``."""
        from hostspeed import SpeedProbe
        from server import ServerProcess
        from world import World

        async with SpeedProbe() as probe:
            started = time.perf_counter()
            self.server = ServerProcess(
                REPO, self.args.preset, self.scratch / f"store-{index}",
                launcher=launcher, spans_out=spans_out,
            ).start()
            self.world = World(self.params, self.args.seed,
                               self.server.host, self.server.port)
            self.world.store_root = self.server.store_root
            await self.world.connect()
            self.world.issue_keys(revokee=self.workload.revokee)
            await self.workload.prepare(self.world)
            await self.workload.warm(self.world)
            wall = time.perf_counter() - started
        return wall, probe.wall_scale

    async def teardown(self) -> None:
        if self.world is not None:
            await self.world.close()
            self.world = None
        if self.server is not None:
            code = self.server.stop()
            self.server = None
            if code != 0:
                raise RuntimeError(f"server exited with status {code}")

    async def window(self):
        """One measured window with outside-in server sampling."""
        from hostspeed import SpeedProbe
        from loops import Recorder

        recorder = Recorder()
        rss = [self.server.rss_mb()]
        done = asyncio.Event()

        async def sample_rss():
            while not done.is_set():
                rss.append(self.server.rss_mb())
                try:
                    await asyncio.wait_for(done.wait(), RSS_PERIOD)
                except asyncio.TimeoutError:
                    pass

        sampler = asyncio.ensure_future(sample_rss())
        async with SpeedProbe() as probe:
            server_cpu = self.server.cpu_seconds()
            client_cpu = time.process_time()
            try:
                wall = await self.workload.run(self.world, recorder,
                                               self.args.seconds)
            finally:
                done.set()
                await sampler
            usage = {
                "wall": wall,
                "server_cpu": self.server.cpu_seconds() - server_cpu,
                "client_cpu": time.process_time() - client_cpu,
                "rss_mb": max(rss),
            }
        usage.update(scale=probe.scale, wall_scale=probe.wall_scale,
                     probe_ms=probe.mean_ms, steal=probe.steal_share)
        return recorder, usage

    def end_to_end(self, recorder, usage, setups) -> dict:
        """The end-to-end metrics; times and rates at reference host
        speed (``hostspeed``), with the raw figures in the report."""
        import hostspeed
        from loops import p50, tail

        workload = self.workload
        ops = workload.ops(recorder)
        if ops == 0:
            raise RuntimeError("the window completed no ops")
        samples = recorder.samples(*workload.headline)
        tail_value, tail_pct, tail_n = tail(samples)
        store = workload.store_footprint(self.world)
        raw = {
            "ops_s": ops / usage["wall"],
            "p50_ms": 1000 * p50(samples),
            "tail_ms": 1000 * tail_value,
            "server_cpu_ms_per_op": 1000 * usage["server_cpu"] / ops,
            "client_cpu_ms_per_op": 1000 * usage["client_cpu"] / ops,
        }
        scale, wall_scale = usage["scale"], usage["wall_scale"]
        metrics = {
            "setup_s": metric(statistics.median(
                wall * setup_scale for wall, setup_scale in setups), "s"),
            "ops_s": metric(raw["ops_s"] / wall_scale, "ops/s"),
            "p50_ms": metric(raw["p50_ms"] * wall_scale, "ms"),
            "tail_ms": metric(raw["tail_ms"] * wall_scale, "ms"),
            "server_cpu_ms_per_op": metric(
                raw["server_cpu_ms_per_op"] * scale, "ms"),
            "client_cpu_ms_per_op": metric(
                raw["client_cpu_ms_per_op"] * scale, "ms"),
            "server_rss_mb": metric(usage["rss_mb"], "MB"),
            "store_bytes_per_payload_byte": metric(
                store / self.world.live_payload_bytes(), "ratio"),
        }
        self.say(f"workload {workload.name}: seed {self.args.seed}, "
                 f"preset {self.args.preset}, window {usage['wall']:.2f} s, "
                 f"setups {', '.join(f'{wall:.2f}' for wall, _ in setups)} "
                 f"s wall")
        self.say(f"host probe {usage['probe_ms']:.3f} ms (reference "
                 f"{hostspeed.REFERENCE_MS} ms), steal {usage['steal']:.1%}: "
                 f"CPU times below are scaled by {scale:.3f}, wall times by "
                 f"{wall_scale:.3f}; raw " + ", ".join(
                     f"{name} {value:.4g}" for name, value in raw.items()))
        self.say(f"headline {'+'.join(workload.headline)}: "
                 f"tail is p{tail_pct:.1f} of n={tail_n}")
        self.report_classes(recorder)
        return metrics

    def report_classes(self, recorder) -> None:
        """Per-op-class counts and latencies (every class, every run)."""
        from loops import p50, tail

        for cls in sorted(recorder.attempted):
            attempted = recorder.attempted[cls]
            failed = recorder.failed.get(cls, 0)
            samples = recorder.latencies.get(cls, [])
            line = (f"  class {cls}: attempted {attempted}, failed {failed}, "
                    f"failed_frac {failed / attempted:.4f} ratio")
            if samples:
                line += f", {cls}_p50_ms {1000 * p50(samples):.2f} ms"
            if len(samples) >= 100:
                value, pct, n = tail(samples)
                line += f", p{pct:.1f} {1000 * value:.2f} ms (n={n})"
            self.say(line)
        sweeps = recorder.latencies.get("sweep")
        if sweeps:
            self.say(f"  sweep_s {p50(sweeps):.3f} s over {len(sweeps)} "
                     f"rounds, {recorder.units} records re-encrypted; after "
                     f"each, rolled readers read and the revoked read was "
                     f"refused with SchemeError")
        if recorder.lags:
            lags = sorted(recorder.lags)
            self.say(f"  loadgen lag p50 {1000 * p50(lags):.2f} ms, "
                     f"max {1000 * lags[-1]:.2f} ms, shed {recorder.shed}")
        for error in recorder.errors:
            self.say(f"  op failure: {error}")

    async def untraced(self) -> tuple:
        setups = []
        for index in range(SETUPS):
            setups.append(await self.setup(index))
            if index < SETUPS - 1:
                await self.teardown()
        self.workload.sabotage = self.args.sabotage
        recorder, usage = await self.window()
        self.workload.sabotage = False
        await self.workload.verify(self.world)
        return recorder, self.end_to_end(recorder, usage, setups)

    async def traced(self) -> tuple:
        import tracing

        spans_out = self.scratch / "server-spans.json"
        await self.setup(0, launcher=HERE / "server_launcher.py",
                         spans_out=spans_out)
        self.workload.sabotage = self.args.sabotage
        plain, plain_usage = await self.window()
        tracer = tracing.ClientTracer(self.world)
        self.server.signal(signal.SIGUSR1)
        await asyncio.sleep(SIGNAL_SETTLE)
        with tracer:
            traced, traced_usage = await self.window()
        self.server.signal(signal.SIGUSR2)
        await asyncio.sleep(SIGNAL_SETTLE)
        self.workload.sabotage = False
        await self.workload.verify(self.world)
        await self.teardown()
        server_spans = json.loads(spans_out.read_text("utf-8"))
        report = tracing.Report(self.workload, tracer, traced, traced_usage,
                                server_spans, plain, plain_usage)
        out = REPO / ".perfbench" / (
            f"spans-{self.workload.name}-{self.args.seed}.json")
        report.write_spans(out)
        for line in report.lines():
            self.say(line)
        self.report_classes(traced)
        self.say(f"spans written to {out.relative_to(REPO)}")
        return traced, report.metrics()

    async def main(self) -> dict:
        from loops import GateFailure

        self.scratch.mkdir(parents=True, exist_ok=True)
        try:
            if self.args.trace:
                recorder, metrics = await self.traced()
            else:
                recorder, metrics = await self.untraced()
        except GateFailure as exc:
            self.say(f"CORRECTNESS GATE FAILED: {exc}")
            return {"correct": False, "attempted": 1, "failed": 1,
                    "metrics": {}}
        finally:
            try:
                await self.teardown()
            finally:
                shutil.rmtree(self.scratch, ignore_errors=True)
        for name, entry in metrics.items():
            self.say(f"  {name} = {entry['value']:.6g} {entry['unit']}")
        return {"correct": True,
                "attempted": recorder.total_attempted(),
                "failed": recorder.total_failed(),
                "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {REPO / 'src'}; run from "
              "a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    result = asyncio.run(Run(args).main())
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
