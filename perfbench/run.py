#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the distance-label oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One run:

1. generates the workload's graph (fixed per workload; ``--seed``
   draws the query pairs) and writes its edge list;
2. sets up several times (``setup_s`` is the median): a build child
   decomposes, labels and packs the graph to a ``/2`` file, a
   ``repro serve`` process opens it, a first DIST is answered and one
   BATCH pass touches every label;
3. drives the last server from this process over at most ``nproc``
   connections: ten read rounds (a fixed-rate open-loop DIST block
   and a closed-loop BATCH-64 slice each), then five update rounds
   (each reweight of a fixed sequence relabeled incrementally,
   journaled and pushed as a DELTA, then a few open-loop DIST reads);
4. checks every answer after its phase (served == offline estimate;
   sampled pairs within ``1 + eps`` of a scipy Dijkstra distance; after
   the last update, served == a from-scratch ``build_labeling``);
5. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   end-to-end metrics (``--trace 0``) or, with the server's telemetry
   switched on, the per-layer metrics (``--trace 1``); the traced run
   also climbs an open-loop DIST rate ladder and times each layer's
   public calls in this process.

Per-phase operations attempted and failed go to standard error.

A failed check prints ``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from check import (
    CheckFailure, ReplyError, batch_estimates, check_served, check_stretch,
    dijkstra_distances, dist_estimate,
)
from layers import binfmt_layer, protocol_layer, store_layer
from loadgen import close_all, closed_loop, connect, open_loop, round_trip
from workloads import (
    BATCH_PAIRS, EPSILON, MAX_LATE_MS, READS_PER_UPDATE, RUNG_REQUESTS,
    SLO_P99_US, STRETCH_SAMPLE, UPDATE_SEED, WORKLOADS, PairSampler, make_edges,
    reweights, write_edges,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
#: Seconds of measured phases the workload durations are written for.
REFERENCE_SECONDS = 25.0
#: Read rounds per run (an open-loop DIST block and a closed-loop BATCH
#: slice each); the read figures are medians over them.
READ_ROUNDS = 10
#: Update rounds per run (a share of the reweight sequence each).
UPDATE_ROUNDS = 5

Pair = Tuple[int, int]

#: Metric names and units, in the order printed, from ``BENCHMARK.json``.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(RuntimeError):
    """The run could not complete (a process died, a reply went missing)."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def pct(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile *q* in [0, 1]."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def dist_line(u: int, v: int) -> bytes:
    return b'{"op":"DIST","u":%d,"v":%d}\n' % (u, v)


def batch_line(pairs: Sequence[Pair]) -> bytes:
    body = ",".join("[%d,%d]" % p for p in pairs)
    return b'{"op":"BATCH","pairs":[%s]}\n' % body.encode()


def chunks(seq: Sequence, size: int) -> List[Sequence]:
    return [seq[i:i + size] for i in range(0, len(seq), size)]


# -- child processes ----------------------------------------------------------

def build_labels(edges: Path, out: Path, epsilon: float) -> dict:
    """Run the build child; returns its stage report plus ``rss_mb``,
    the child's own peak resident memory."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "build_labels.py"), str(edges), str(out), repr(epsilon)],
        stdout=subprocess.PIPE,
        env=ENV,
    )
    try:
        output = proc.stdout.read()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"build child exited with {proc.returncode}")
    report = json.loads(output)
    report["rss_mb"] = usage.ru_maxrss / 1024.0
    return report


class Server:
    """A ``repro serve`` child on an ephemeral port."""

    def __init__(self, labels: Path, cache: int, trace: bool, workdir: Path) -> None:
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--labels", str(labels), "--port", "0",
            "--cache", str(cache), "--drain-grace", "2",
        ]
        if trace:
            cmd += ["--metrics", "--trace-out", str(workdir / "server-spans.jsonl")]
        with open(workdir / "server.log", "ab") as server_log:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=server_log, env=ENV, cwd=workdir
            )
        try:
            self.address = self._wait_ready(60.0)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout: float) -> Tuple[str, int]:
        fd = self.proc.stdout.fileno()
        buf = b""
        deadline = time.monotonic() + timeout
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError("server did not report ready in time")
            readable, _, _ = select.select([fd], [], [], left)
            if not readable:
                continue
            data = os.read(fd, 4096)
            if not data:
                raise BenchError(f"server exited early ({self.proc.wait()})")
            buf += data
            for line in buf.split(b"\n")[:-1]:
                if line.startswith(b"ready "):
                    host, port = line.split()[1].decode().rsplit(":", 1)
                    return host, int(port)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# -- offline references -----------------------------------------------------

class FileEstimates:
    """Offline estimates from a ``/2`` file through the dict reference
    path (``BinaryLabelReader.get`` + ``estimate_distance``), a
    different decoder and combine than the server's flat path."""

    def __init__(self, path: Path) -> None:
        from repro.core.binfmt import BinaryLabelReader

        self.reader = BinaryLabelReader(path)
        self.labels: Dict[int, object] = {}

    def label(self, v: int):
        found = self.labels.get(v)
        if found is None:
            found = self.labels[v] = self.reader.get(v)
        return found

    def __call__(self, u: int, v: int) -> float:
        from repro.core.labeling import estimate_distance

        return estimate_distance(self.label(u), self.label(v))

    def close(self) -> None:
        self.labels.clear()
        self.reader.close()


# -- one run ----------------------------------------------------------------

class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool, workdir: Path) -> None:
        self.w = workload
        self.seed = seed
        self.scale = seconds / REFERENCE_SECONDS
        self.trace = trace
        self.dir = workdir
        self.edges = make_edges(workload)
        self.edges_path = workdir / "graph.edges"
        write_edges(self.edges, self.edges_path)
        self.conns = min(2, len(os.sched_getaffinity(0)))
        self.attempted = 0
        self.failed = 0
        self.layer: Dict[str, float] = {}
        self.server: Optional[Server] = None
        self.socks: list = []

    def sampler(self, tag: int, kind: Optional[str] = None):
        return PairSampler(self.w.n, kind or self.w.pairs, [self.seed, tag])

    # -- requests ---------------------------------------------------------
    def served_dist(self, pairs: Sequence[Pair], replies: Sequence[bytes], offline) -> None:
        """Parse DIST replies, count failed ones, check the rest."""
        ok_pairs, values = [], []
        for pair, line in zip(pairs, replies):
            try:
                values.append(dist_estimate(line))
                ok_pairs.append(pair)
            except ReplyError:
                self.failed += 1
        check_served(ok_pairs, values, offline)

    def served_batch(self, batches: Sequence[Sequence[Pair]], replies: Sequence[bytes], offline) -> List[float]:
        ok_pairs, values = [], []
        for pairs, line in zip(batches, replies):
            try:
                got = batch_estimates(line)
            except ReplyError:
                self.failed += 1
                continue
            ok_pairs.extend(pairs)
            values.extend(got)
        check_served(ok_pairs, values, offline)
        return values

    def call(self, line: bytes) -> Tuple[dict, float]:
        self.attempted += 1
        reply, seconds = round_trip(self.socks[0], line)
        reply = json.loads(reply)
        if not reply.get("ok"):
            self.failed += 1
            raise BenchError(f"request failed: {reply.get('error')}")
        return reply, seconds

    def query_batches(self, pairs: Sequence[Pair], offline) -> List[float]:
        """Untimed BATCH queries for a checking sample."""
        batches = chunks(pairs, 64)
        replies = []
        for batch in batches:
            self.attempted += 1
            replies.append(round_trip(self.socks[0], batch_line(batch))[0])
        return self.served_batch(batches, replies, offline)

    # -- phases -----------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Log the phase's operations attempted and failed, and its time."""
        attempted, failed, t0 = self.attempted, self.failed, time.perf_counter()
        yield
        log(f"phase {name}: {self.attempted - attempted} attempted, "
            f"{self.failed - failed} failed, {time.perf_counter() - t0:.2f} s")

    def setup(self) -> Tuple[float, Path]:
        """Set up ``w.setups`` times and return the median time and the
        labels file; the last server keeps running.

        One set-up runs from the edge list to a started server that has
        answered a first DIST and then one BATCH pass touching every
        label, so lazily decoded or mapped state is paid here and not in
        the timed phases.
        """
        first = self.sampler(1).sample(1)
        touch = chunks([(v, (v + 1) % self.w.n) for v in range(self.w.n)], 64)
        touch_lines = [batch_line(b) for b in touch]
        times, builds, blobs, firsts, touched = [], [], [], [], []
        for i in range(self.w.setups):
            if self.server is not None:
                self.server.stop()
                self.server = None
            labels = self.dir / f"labels{i}.bin"
            t0 = time.perf_counter()
            builds.append(build_labels(self.edges_path, labels, EPSILON))
            self.server = Server(labels, self.w.pair_cache, self.trace, self.dir)
            socks = connect(self.server.address, 1)
            try:
                reply, _ = round_trip(socks[0], dist_line(*first[0]))
                result = closed_loop(socks, touch_lines, count=len(touch_lines))
            finally:
                close_all(socks)
            times.append(time.perf_counter() - t0)
            self.attempted += 1 + len(touch_lines)
            firsts.append(reply)
            touched.append(result.responses)
            blobs.append(labels.read_bytes())
        if any(blob != blobs[0] for blob in blobs):
            raise AssertionError("repeated builds of one graph produced different label files")
        offline = FileEstimates(labels)
        try:
            self.served_dist(first * len(firsts), firsts, offline)
            for replies in touched:
                self.served_batch(touch, replies, offline)
        finally:
            offline.close()
        self.builds = builds
        for key, name in (
            ("decomposition_s", "decomposition.seconds"),
            ("labeling_s", "labeling.seconds"),
            ("pack_s", "binfmt.pack_seconds"),
        ):
            self.layer[name] = statistics.median(b[key] for b in builds)
        self.layer["decomposition.nodes"] = builds[0]["nodes"]
        self.layer["decomposition.max_paths_per_node"] = builds[0]["max_paths_per_node"]
        self.layer["labeling.entries"] = builds[0]["entries"]
        self.blob = blobs[-1]
        log(f"setup: {', '.join(f'{t:.3f}' for t in times)} s")
        return statistics.median(times), labels

    def dist_open_loop(self, pairs: Sequence[Pair], rate: float, offline):
        lines = [dist_line(u, v) for u, v in pairs]
        self.attempted += len(lines)
        result = open_loop(self.socks, lines, rate)
        self.served_dist(pairs, result.responses, offline)
        return result

    def settle(self, offline) -> None:
        """Untimed DIST and BATCH traffic so the server and this process
        are running hot before the first timed phase."""

        self.dist_open_loop(self.sampler(2).sample(int(2000 * max(self.scale, 0.25))), 2000, offline)
        batches = chunks(self.sampler(2).sample(BATCH_PAIRS * max(20, int(200 * self.scale))),
                         BATCH_PAIRS)
        result = closed_loop(self.socks, [batch_line(b) for b in batches], count=len(batches))
        self.attempted += len(batches)
        self.served_batch(batches, result.responses, offline)

    def ladder(self, offline, sampler) -> float:
        """One climb of the open-loop DIST rate ladder (fixed rungs 5%
        apart, ``RUNG_REQUESTS`` requests each).  Visits every third rung,
        then the two rungs above the highest of those that met the p99
        limit (rungs 1 and 2 if none did), so every climb sends the same
        requests whatever the server's speed.  Returns the highest rate
        that met the limit, interpolated on p99 toward the next rung up
        when that was visited, or 0 when no visited rung met it.
        """
        rates = self.w.ladder
        count = max(100, int(RUNG_REQUESTS * self.scale))
        rungs: Dict[int, Tuple[float, bool]] = {}

        def visit(k: int) -> None:
            rate = rates[k]
            result = self.dist_open_loop(sampler.sample(count), rate, offline)
            p99 = pct(result.latency_s, 0.99) * 1e6
            late = statistics.median(result.late_s) * 1e3
            keeping_up = result.backlog_at_end <= max(10, rate * SLO_P99_US * 1e-6)
            ok = p99 <= SLO_P99_US and late <= MAX_LATE_MS and keeping_up
            rungs[k] = (p99, ok)
            log(f"rung {rate} q/s: p99 {p99:.0f} us, late p50 {late:.3f} ms, "
                f"backlog {result.backlog_at_end}, {'met' if ok else 'missed'}")

        for k in range(0, len(rates), 3):
            visit(k)
        met = [k for k, (_, ok) in rungs.items() if ok]
        base = max(met) if met else 0
        for k in (base + 1, base + 2):
            visit(k)
        met = [k for k, (_, ok) in rungs.items() if ok]
        if not met:
            return 0.0
        best = max(met)
        above = best + 1
        if above not in rungs:
            return float(rates[best])
        p_lo, p_hi = rungs[best][0], rungs[above][0]
        frac = (SLO_P99_US - p_lo) / max(p_hi - p_lo, 1e-9)
        return rates[best] + (rates[above] - rates[best]) * min(1.0, max(0.0, frac))

    def latency(self, offline, sampler):
        count = max(100, int(self.w.latency_rate * self.w.latency_s * self.scale / READ_ROUNDS))
        return self.dist_open_loop(sampler.sample(count), self.w.latency_rate, offline)

    def batch(self, offline, sampler) -> Tuple[int, float]:
        """One closed-loop slice of BATCH-64 requests (a READ_ROUNDS-th of
        ``w.batches``); returns the pairs answered and the seconds taken."""
        count = max(4, int(self.w.batches * self.scale / READ_ROUNDS))
        batches = chunks(sampler.sample(BATCH_PAIRS * count), BATCH_PAIRS)
        result = closed_loop(self.socks, [batch_line(b) for b in batches], count=count)
        self.attempted += count
        self.served_batch(batches, result.responses, offline)
        self.batch_replies = result.responses[:200]
        return count * BATCH_PAIRS, result.elapsed_s

    def stats(self) -> dict:
        reply, _ = self.call(b'{"op":"STATS"}\n')
        return reply

    # -- updates ----------------------------------------------------------
    def prepare_updates(self) -> None:
        """Untimed: the updater's own labeling of the graph (it must be
        byte-identical to the served file) and the fixed reweight
        sequence.  The first reweight is applied here: it builds the
        updater's lazy state and is reported on its own."""
        from repro.core.binfmt import pack_labeling
        from repro.core.decomposition import build_decomposition
        from repro.core.engines import auto_engine
        from repro.core.labeling import build_labeling
        from repro.dynamic.journal import JournalWriter
        from repro.graphs.io import read_edge_list
        graph = read_edge_list(self.edges_path)
        self.labeling = build_labeling(
            graph, build_decomposition(graph, auto_engine(graph, seed=0)), epsilon=EPSILON
        )
        if pack_labeling(self.labeling) != self.blob:
            raise AssertionError("the updater's labels differ from the served labels")
        count = UPDATE_ROUNDS * max(1, round(self.w.updates * self.scale / UPDATE_ROUNDS))
        self.sequence = reweights(self.edges, 1 + count, UPDATE_SEED)
        self.journal = JournalWriter(self.dir / "updates.journal", epsilon=self.labeling.epsilon)
        self.upd: Dict[str, list] = {k: [] for k in (
            "relabel", "append", "push", "total", "units", "touched")}
        first = self.apply_update(*self.sequence[0])
        self.layer["rebuild.first_relabel_ms"] = first["relabel"] * 1e3

    def apply_update(self, u: int, v: int, weight: float) -> Dict[str, float]:
        """Relabel, journal and push one reweight; returns its timings."""
        from repro.dynamic.invalidate import EdgeUpdate
        from repro.dynamic.rebuild import delta_to_dict, incremental_relabel

        t0 = time.perf_counter()
        delta = incremental_relabel(self.labeling, EdgeUpdate(u, v, weight))
        t1 = time.perf_counter()
        self.journal.append(delta)
        t2 = time.perf_counter()
        line = json.dumps(
            {"op": "DELTA", "action": "apply", "delta": delta_to_dict(delta)},
            separators=(",", ":"),
        ).encode() + b"\n"
        reply, rt = self.call(line)
        t3 = time.perf_counter()
        if not reply.get("applied") or reply.get("epoch") != delta.epoch:
            raise AssertionError(f"DELTA epoch {delta.epoch} not applied: {reply}")
        return {"relabel": t1 - t0, "append": t2 - t1, "push": rt, "total": t3 - t0,
                "units": delta.units, "touched": delta.num_changes}

    def update_block(self, items, sampler) -> None:
        """Apply *items* of the reweight sequence, each followed by a
        block of open-loop DIST reads checked against the updated
        labels."""
        for u, v, weight in items:
            timing = self.apply_update(u, v, weight)
            for key, value in timing.items():
                self.upd[key].append(value)
            self.dist_open_loop(sampler.sample(READS_PER_UPDATE), self.w.latency_rate,
                                self.labeling.estimate)

    def finish_updates(self) -> None:
        """After the last update: served answers must equal a from-scratch
        ``build_labeling`` on the final graph and meet the stretch bound
        against Dijkstra on the reweighted edge list."""
        from repro.core.labeling import build_labeling
        self.journal.close()
        labeling = self.labeling
        fresh = build_labeling(labeling.graph, labeling.tree, labeling.epsilon)
        sample = self.sampler(8, "uniform").sample(STRETCH_SAMPLE)
        served = self.query_batches(sample, fresh.estimate)
        check_served(sample, served, labeling.estimate)
        final = {(a, b): w for a, b, w in self.edges}
        for a, b, w in self.sequence:
            final[(a, b)] = w
        distances = dijkstra_distances(self.w.n, ((a, b, w) for (a, b), w in final.items()), sample)
        check_stretch(sample, served, distances, EPSILON)
        upd = self.upd
        self.layer.update({
            "invalidate.affected_units": statistics.mean(upd["units"]),
            "rebuild.relabel_ms": statistics.median(upd["relabel"]) * 1e3,
            "rebuild.touched_entries": statistics.mean(upd["touched"]),
            "journal.append_ms": statistics.median(upd["append"]) * 1e3,
            "delta.push_ms": statistics.median(upd["push"]) * 1e3,
        })

    # -- the run ------------------------------------------------------------
    def metrics(self) -> dict:
        return self.call(b'{"op":"METRICS"}\n')[0]["metrics"]["histograms"]

    def execute(self) -> Dict[str, Dict[str, float]]:
        """Set up, then READ_ROUNDS read rounds (an open-loop DIST block
        and a closed-loop BATCH slice each) and UPDATE_ROUNDS update
        rounds.  ``dist_p50_us`` is the median of the rounds' DIST
        medians, so that a slow stretch of the shared machine moves a few
        rounds, not the result; ``batch_pairs_per_s`` is all slices' pairs
        over their summed time and ``updates_per_s`` a sum over the whole
        fixed reweight sequence.  Every phase sends a fixed number of
        requests.  The traced run then climbs the rate ladder once and
        times the public calls of each layer."""
        try:
            with self.phase("setup"):
                setup_s, labels = self.setup()
            self.socks = connect(self.server.address, self.conns)
            offline = FileEstimates(labels)
            with self.phase("stretch sample"):
                sample = self.sampler(7, "uniform").sample(STRETCH_SAMPLE)
                served = self.query_batches(sample, offline)
                stretch = check_stretch(
                    sample, served, dijkstra_distances(self.w.n, self.edges, sample),
                    EPSILON,
                )
            with self.phase("settle"):
                self.settle(offline)
            offline.close()
            with self.phase("prepare updates"):
                self.prepare_updates()
            # The updater's labeling is millions of long-lived objects;
            # keep the collector from walking them during timed phases.
            gc.collect()
            gc.freeze()
            before = self.stats()["counters"]
            current = self.labeling.estimate
            p50s, latency, late, round_trip_s = [], [], [], []
            server_count, server_ns = 0, 0.0
            batch_pairs, batch_s, batch_rates = 0, 0.0, []
            samplers = [self.sampler(tag) for tag in (4, 5, 6)]
            key = "serve.latency_ns{op=DIST}"
            for rnd in range(READ_ROUNDS):
                hist_before = self.metrics()[key] if self.trace else None
                with self.phase(f"round {rnd} latency"):
                    result = self.latency(current, samplers[0])
                if self.trace:
                    hist_after = self.metrics()[key]
                    server_count += hist_after["count"] - hist_before["count"]
                    server_ns += hist_after["sum"] - hist_before["sum"]
                p50s.append(statistics.median(result.latency_s))
                latency.extend(result.latency_s)
                late.extend(result.late_s)
                # From the actual send, not the due time: the round trip
                # the server's own DIST timings are compared with.
                round_trip_s.extend(t - lt for t, lt in zip(result.latency_s, result.late_s))
                with self.phase(f"round {rnd} batch"):
                    pairs, seconds = self.batch(current, samplers[1])
                batch_pairs += pairs
                batch_s += seconds
                batch_rates.append(pairs / seconds)
            dist_replies = result.responses
            # Updates come after every read round: their deltas move
            # labels into the store's overlay and clear the pair cache,
            # which changes what the reads above measure.
            items = self.sequence[1:]
            per_round = len(items) // UPDATE_ROUNDS
            for rnd in range(UPDATE_ROUNDS):
                with self.phase(f"round {rnd} updates"):
                    self.update_block(items[rnd * per_round:(rnd + 1) * per_round], samplers[2])
            with self.phase("final check"):
                self.finish_updates()
            stats = self.stats()
            if self.trace:
                hist = self.metrics()
                with self.phase("ladder"):
                    rate_at_slo = self.ladder(current, self.sampler(3))
        finally:
            close_all(self.socks)
            if self.server is not None:
                self.server.stop()
        counters = stats["counters"]
        e2e = {
            "setup_s": setup_s,
            "build_rss_mb": statistics.median(b["rss_mb"] for b in self.builds),
            "label_bytes_per_vertex": len(self.blob) / self.w.n,
            "label_words_per_vertex": self.builds[0]["words"] / self.w.n,
            "stretch_mean": statistics.mean(stretch),
            "dist_p50_us": statistics.median(p50s) * 1e6,
            "batch_pairs_per_s": batch_pairs / batch_s,
            "updates_per_s": len(self.upd["total"]) / sum(self.upd["total"]),
            "server_rss_mb": stats["rss_bytes"] / 2**20,
        }
        log("rounds: p50 us " + ", ".join(f"{x * 1e6:.0f}" for x in p50s)
            + "; batch slices pairs/s " + ", ".join(f"{x:.0f}" for x in batch_rates)
            + f" (all {e2e['batch_pairs_per_s']:.0f})"
            + f"; updates {e2e['updates_per_s']:.2f}/s (seconds: "
            + ", ".join(f"{k} {sum(self.upd[k]):.3f}" for k in ("relabel", "append", "push"))
            + ")")
        if not self.trace:
            return {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

        # The server's DIST time over exactly the read rounds' requests:
        # the histogram's count and sum before and after each round.
        if server_count != len(round_trip_s):
            raise BenchError(f"server timed {server_count} DIST in the read rounds, "
                             f"{len(round_trip_s)} were sent")
        server_mean_us = server_ns / server_count / 1e3
        store_stats = next(iter(stats["stores"].values()))
        probe = self.sampler(9).sample(2000)
        self.layer.update(binfmt_layer(labels, [u for u, _ in probe]))
        self.layer.update(store_layer(labels, probe))
        dist_lines = [dist_line(u, v) for u, v in probe]
        batch_lines = [batch_line(b) for b in chunks(probe, 64)]
        self.layer.update(protocol_layer(
            dist_lines, batch_lines, dist_replies[:2000], self.batch_replies
        ))
        self.layer.update({
            "server.cached_labels": store_stats.get("cached_labels", store_stats.get("labels", 0)),
            "server.dist_p50_us": hist[key]["p50"] / 1e3,
            "server.wire_us": statistics.mean(round_trip_s) * 1e6 - server_mean_us,
            "server.pair_cache_hits": counters["cache_hits"] - before["cache_hits"],
            "server.pair_cache_misses": counters["cache_misses"] - before["cache_misses"],
            "server.delta_apply_us": hist["serve.latency_ns{op=DELTA}"]["p50"] / 1e3,
            "loadgen.late_ms": pct(late, 0.99) * 1e3,
            "loadgen.dist_p99_us": pct(latency, 0.99) * 1e6,
            "loadgen.rate_at_slo_qps": rate_at_slo,
            "dynamic.update_p50_ms": statistics.median(self.upd["total"]) * 1e3,
            "traced.dist_p50_us": e2e["dist_p50_us"],
            "traced.setup_s": setup_s,
        })
        return {k: {"value": self.layer[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), Path(tmp))
        try:
            metrics = run.execute()
        except (CheckFailure, AssertionError) as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": max(1, run.attempted),
                              "failed": run.failed, "metrics": {}}))
            return 1
    print(json.dumps({
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
