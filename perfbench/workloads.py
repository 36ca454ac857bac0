"""The benchmark's workloads: inputs, timed phases, checks and metrics.

Every workload runs the same pipeline of public calls, one phase each:

    write    data.write_dataset     the training log as JSONL
    read     data.read_dataset      that file back
    encode   model.encode_examples  the rows read back
    fit      train.fit              multi-task, on a fresh seeded model
    evaluate evaluation.evaluate    both tasks on the test split
    cache    serve.build_caches + save_caches + load_caches
    topk     serve.assign_topk      both tasks, from the loaded caches
    lookup   serve.score_from_cache one (user, tag, task) per call

The workloads differ in their inputs, which decide where the time goes.
A run sets up (data generation plus model construction), then repeats
whole rounds of the pipeline, with another timed set-up after every
``setup_every`` rounds, while the next round and set-up still fit in
``seconds`` counted from the first set-up. It reports, per phase, the
work done over the time taken by all its calls, and the median of its
set-ups.

Every time and rate is scaled to a reference host speed. The host runs
this process at speeds up to 1.6 times apart, switching every few
seconds and drifting over minutes with other tenants' load (process CPU
time follows wall time), so a whole run can be 15% faster or slower than
the next on every phase at once. After every timed call the run times
``reference_work``, a fixed task of the benchmark's own, and divides by
how much slower than ``REFERENCE_SECONDS`` it ran: a work-over-time rate
by the mean reference time, a median (set-up, lookup latency) by the
median one, since a median follows the mode the host spent most time in,
not the mix. The program's changes cannot move the reference; the host's
moves both.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import mvke.data as D
import mvke.diffgraph as dg
import mvke.evaluation as E
import mvke.model as M
import mvke.serve as S
import mvke.train as T
from mvke.errors import MvkeError

import checks as C
from tracing import PHASE_CALLS, SETUP_CALLS, Tracer, median, median_seconds, spans_around

PHASES = ("write", "read", "encode", "fit", "evaluate", "cache", "topk", "lookup")
EPOCHS = 2  # the fewest that show the loss falling
LEARNING_RATE = 0.003  # not the default 0.001, so that train_mt's two-epoch fit learns clearly
TOP_K = 10
EVAL_PASSES = 3  # evaluate calls per round: one short call is too few samples
CHECK_USERS = 16  # users whose full forward checks the caches
AUC_SUBSAMPLE = 2000  # test rows the pairwise AUC count runs on
REFERENCE_SECONDS = 0.010  # about the median time of reference_work on the host of README.md

_ref_rng = np.random.default_rng(0)
REFERENCE_ROWS = [{"user": i, "tags": [i % 7, i % 11, i % 13],
                   "fields": {"age": i % 5, "city": i % 17}} for i in range(600)]
REFERENCE_X = _ref_rng.standard_normal((256, 16)).astype(np.float32)
REFERENCE_W = (_ref_rng.standard_normal((16, 16)) / 4).astype(np.float32)


def reference_work() -> float:
    """About 10 ms of the kinds of work the program does: JSON rows and
    per-row dict updates in Python, then small float32 matrix products."""
    counts: dict = {}
    for row in json.loads(json.dumps(REFERENCE_ROWS)):
        for t in row["tags"]:
            counts[t] = counts.get(t, 0) + row["fields"]["age"]
    x = REFERENCE_X
    for _ in range(120):
        x = np.tanh(x @ REFERENCE_W) + 0.5 * x
        x = x / (1e-6 + np.abs(x).max(axis=1, keepdims=True))
    return float(x.sum()) + sum(counts.values())


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload; the seed comes from the command line."""

    n_users: int          # user base; the serving roster is its first n_roster users
    n_tags: int           # tag vocabulary; the serving catalogue is all of it
    n_train: int          # rows of the training log, written, read and encoded
    n_test: int           # rows of the test split, scored by evaluate
    n_fit: int            # leading rows of the log that fit trains on
    n_roster: int
    lookups: int          # single-pair lookups per round
    ingest_passes: int = 1  # write/read/encode calls per round
    setup_every: int = 1    # rounds between two timed set-ups
    # Check that fit learned: test AUC clearly above chance. Only where fit is
    # the subject; elsewhere a short fit just yields a model, and with 300 tags
    # it is not clearly above chance on every seed.
    check_learning: bool = False


FULL = {
    "train_mt": Workload(n_users=10_000, n_tags=100, n_train=12_000, n_test=8_000,
                         n_fit=12_000, n_roster=5_000, lookups=5_000, ingest_passes=4,
                         check_learning=True),
    "serve": Workload(n_users=30_000, n_tags=300, n_train=8_000, n_test=4_000,
                      n_fit=4_000, n_roster=30_000, lookups=20_000, ingest_passes=4,
                      setup_every=2),
}

SMALL = {
    name: replace(w, n_users=400, n_tags=20, n_train=1_500, n_test=1_000, n_fit=1_500,
                  n_roster=200, lookups=300)
    for name, w in FULL.items()
}

SCALES = {"full": FULL, "small": SMALL}


def generator_config(w: Workload, seed: int) -> D.GeneratorConfig:
    return D.GeneratorConfig(n_users=w.n_users, n_tags=w.n_tags,
                             n_impressions=w.n_train, n_test_impressions=w.n_test,
                             seed=seed)


def model_config(gen: D.GeneratorConfig) -> M.ModelConfig:
    return M.ModelConfig(schema=D.schema_for(gen, embed_dim=16),
                         routing=M.five_expert_routing())


@dataclass
class PhaseLog:
    """Per-phase call times (seconds) and operation counts."""

    seconds: dict = field(default_factory=lambda: {p: [] for p in PHASES})
    ops: dict = field(default_factory=lambda: {p: [] for p in PHASES})
    failed: dict = field(default_factory=lambda: {p: 0 for p in PHASES})

    def add(self, phase: str, seconds: float, ops: int) -> None:
        self.seconds[phase].append(seconds)
        self.ops[phase].append(ops)

    def attempted(self) -> dict:
        return {p: sum(n) for p, n in self.ops.items()}

    def rate(self, phase: str) -> float:
        return sum(self.ops[phase]) / sum(self.seconds[phase])


class Run:
    """One run of one workload: set-up, timed rounds, checks, metrics."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path,
                 tracer: Tracer | None = None):
        self.w = workload
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.log = PhaseLog()
        self.untraced = PhaseLog()  # traced runs: the untraced twin of each call
        self.traced_first = {p: [] for p in PHASES}  # traced runs: order of each pair
        self.latencies_ns: list[int] = []
        self.setup_seconds: list[float] = []
        self.reference_seconds: list[float] = []
        self.rounds = 0
        self.lookup_rng = np.random.default_rng([seed, 1])

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Generate the inputs and build the model, timed."""
        self.gen = generator_config(self.w, self.seed)
        self.mcfg = model_config(self.gen)
        self.train, self.test, self.truth = self._timed_setup()
        self.fit_rows = self.train[:self.w.n_fit]
        self.roster = [(u, self.truth.user_fields[u]) for u in range(self.w.n_roster)]
        self.tags = list(range(self.w.n_tags))
        self.train_cfg = T.TrainConfig(epochs=EPOCHS, learning_rate=LEARNING_RATE,
                                       seed=self.seed, mode="multi")

    def _timed_setup(self):
        with spans_around(self.tracer, SETUP_CALLS) if self.tracer else nullcontext():
            t0 = time.perf_counter()
            data = D.generate(self.gen)
            M.MvkeModel(self.mcfg, seed=self.seed + 1)
            self.setup_seconds.append(time.perf_counter() - t0)
        self._time_reference()
        return data

    # -- phases ------------------------------------------------------------

    def _timed(self, phase: str, ops: int, call):
        """Time one call.

        A traced run makes the call twice: once plain, as the untraced twin,
        and once inside the phase's root span with a span around each public
        call it makes. The order alternates from one call of a phase to the
        next, so that neither always runs on state the other has warmed.
        """
        if self.tracer is None:
            out, dt = _clocked(call)
            self.log.add(phase, dt, ops)
            self._time_reference()
            return out
        traced_first = len(self.traced_first[phase]) % 2 == 0
        if not traced_first:
            self.untraced.add(phase, _clocked(call)[1], ops)
        with spans_around(self.tracer, PHASE_CALLS[phase]):
            t0 = time.perf_counter()
            with self.tracer.span(f"phase.{phase}"):
                out = call()
            self.log.add(phase, time.perf_counter() - t0, ops)
        if traced_first:
            self.untraced.add(phase, _clocked(call)[1], ops)
        self.traced_first[phase].append(traced_first)
        return out

    def _time_reference(self) -> None:
        """Time reference_work once, after a warm-up call, so that it does not
        pay for reloading its inputs after the phase that ran before it."""
        reference_work()
        self.reference_seconds.append(_clocked(reference_work)[1])

    def round(self) -> dict:
        """One pass of every phase; returns the outputs the checks read."""
        w, out = self.w, {}
        path = self.work_dir / "train.jsonl"
        for _ in range(w.ingest_passes):
            self._timed("write", len(self.train), lambda: D.write_dataset(self.train, path))
            out["read"] = self._timed("read", len(self.train), lambda: D.read_dataset(path))
            out["encoded"] = self._timed(
                "encode", len(out["read"]),
                lambda: M.encode_examples(out["read"], self.mcfg.schema))
        out["jsonl_bytes"] = path.stat().st_size

        steps = EPOCHS * -(-len(self.fit_rows) // self.train_cfg.batch_size)
        # A fresh model from the same seed for each call; a traced run makes two.
        fresh = [M.MvkeModel(self.mcfg, seed=self.seed + 1)
                 for _ in range(2 if self.tracer else 1)]

        def fit():
            model = fresh.pop()
            return model, T.fit(model, self.fit_rows, self.test, self.train_cfg)[1]

        model, out["history"] = self._timed("fit", steps, fit)
        out["model"] = model

        for _ in range(EVAL_PASSES):
            out["aucs"] = self._timed("evaluate", len(self.test),
                                      lambda: E.evaluate(model, self.test).aucs)

        cache_dir = self.work_dir / "caches"

        def cache():
            model.reset_counters()
            built = S.build_caches(model, self.roster, self.tags)
            out["counters"] = dict(model.counters)
            S.save_caches(built, cache_dir)
            return built, S.load_caches(cache_dir)

        out["built"], loaded = self._timed("cache", len(self.roster), cache)
        out["loaded"] = loaded
        out["cache_bytes"] = sum(p.stat().st_size for p in cache_dir.iterdir())

        out["topk"] = {
            task: self._timed("topk", len(self.roster),
                              lambda: S.assign_topk(loaded, TOP_K, task))
            for task in M.TASKS}
        out["lookups"] = self._lookups(loaded)
        self.rounds += 1
        return out

    def _lookups(self, caches) -> list[float]:
        """A closed loop of single-pair lookups, drawn from cached ids only."""
        n, rng = self.w.lookups, self.lookup_rng
        users = [self.roster[i][0] for i in rng.integers(len(self.roster), size=n)]
        tags = [self.tags[i] for i in rng.integers(len(self.tags), size=n)]
        tasks = [M.TASKS[i] for i in rng.integers(len(M.TASKS), size=n)]
        pairs = list(zip(users, tags, tasks))
        latencies = []
        scores = self._timed("lookup", n, lambda: self._lookup_pass(caches, pairs, latencies))
        self.log.failed["lookup"] += sum(s is None for s in scores)
        if self.tracer is None:
            self.latencies_ns += latencies
        return [s for s in scores if s is not None]

    @staticmethod
    def _lookup_pass(caches, pairs, latencies: list[int]) -> list[float | None]:
        """One call per pair; a failed call scores None."""
        scores = []
        clock = time.perf_counter_ns
        for user, tag, task in pairs:
            t0 = clock()
            try:
                scores.append(S.score_from_cache(user, tag, task, caches))
            except (KeyError, MvkeError):
                scores.append(None)
            latencies.append(clock() - t0)
        return scores

    def run(self, seconds: float) -> dict:
        """Set up, then whole rounds and repeated set-ups, within ``seconds``.

        The clock starts before the first set-up. Another round starts only
        if, as long as the longest round so far with its set-up, it still
        ends in time.
        """
        deadline = time.perf_counter() + seconds
        self.setup()
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            out = self.round()
            if self.rounds % self.w.setup_every == 0:
                self._timed_setup()
            now = time.perf_counter()
            longest = max(longest, now - t0)
            if now + longest > deadline:
                return out

    # -- checks --------------------------------------------------------------

    def check(self, out: dict) -> list[str]:
        """Every check on the last round's outputs; returns the failures."""
        failures = []
        for name, fn in (("train", self._check_train), ("serve", self._check_serve),
                         ("ingest", self._check_ingest)):
            try:
                fn(out)
            except C.CheckFailed as e:
                failures.append(f"{name}: {e}")
        return failures

    def _check_train(self, out: dict) -> None:
        C.check_losses(out["history"])
        model = out["model"]
        test_batch = M.encode_examples(self.test, self.mcfg.schema)
        aucs = out["aucs"]
        sub = np.random.default_rng([self.seed, 2]).choice(
            test_batch.size, size=min(AUC_SUBSAMPLE, test_batch.size), replace=False)
        ckpt = self.work_dir / "checkpoint"
        M.save_model(model, ckpt)
        reloaded = M.load_model(ckpt)
        for task in M.TASKS:
            labels = test_batch.label(task)
            n_pos = int(labels.sum())
            if self.w.check_learning:
                bayes = D.bayes_auc(self.truth, self.test, task)
                C.check_auc_range(task.value, aucs[task], n_pos, len(labels) - n_pos, bayes)
            scores = E.predict_dataset(model, test_batch, task)
            C.check_auc_pairwise(E.auc(scores[sub], labels[sub]), scores[sub], labels[sub])
            C.check_identical(f"{task.value} scores after save_model/load_model",
                              scores, E.predict_dataset(reloaded, test_batch, task))

    def _check_serve(self, out: dict) -> None:
        model, loaded = out["model"], out["loaded"]
        C.check_counters(out["counters"], len(self.roster), len(self.tags), len(M.TASKS))
        C.check_cache_round_trip(out["built"], loaded)
        user_ids = [u for u, _ in self.roster]
        sample = np.random.default_rng([self.seed, 3]).choice(
            len(self.roster), size=min(CHECK_USERS, len(self.roster)), replace=False)
        rows = [D.Example(u, fv, (t,), 0, 0)
                for u, fv in (self.roster[i] for i in sample) for t in self.tags]
        batch = M.encode_examples(rows, self.mcfg.schema)
        for task in M.TASKS:
            assignment = out["topk"][task]
            C.check_topk_lists(assignment.entries, TOP_K, len(self.tags), user_ids)
            forward = model.predict(batch, task).reshape(len(sample), len(self.tags))
            cached = np.array([[S.score_from_cache(self.roster[i][0], t, task, loaded)
                                for t in self.tags] for i in sample])
            C.check_cached_vs_forward(cached, forward)
            for r, i in enumerate(sample):
                u = self.roster[i][0]
                C.check_topk_exclusion(u, assignment.entries[u], forward[r], self.tags)
        bad = [s for s in out["lookups"] if not 0.0 < s < 1.0]
        if bad:
            raise C.CheckFailed(f"{len(bad)} lookups outside (0, 1), e.g. {bad[0]!r}")

    def _check_ingest(self, out: dict) -> None:
        C.check_rows_equal(self.train, out["read"])
        C.check_rows_valid(out["read"], self.w.n_tags)
        C.check_rows_match_truth(out["read"], self.truth.user_fields)
        C.check_encoded_weights(out["encoded"])

    # -- metrics -------------------------------------------------------------

    def host_slowdown(self) -> dict:
        """How much slower than REFERENCE_SECONDS the reference ran: mean and median."""
        return {"mean": statistics.mean(self.reference_seconds) / REFERENCE_SECONDS,
                "median": statistics.median(self.reference_seconds) / REFERENCE_SECONDS}

    def end_to_end(self, scaled: bool = True) -> dict:
        slowdown = self.host_slowdown()
        slow, slow_med = (slowdown["mean"], slowdown["median"]) if scaled else (1.0, 1.0)
        lat_us = np.array(self.latencies_ns) / 1e3
        fit_examples = EPOCHS * len(self.fit_rows) * len(self.log.seconds["fit"])
        return {
            "setup_s": (statistics.median(self.setup_seconds) / slow_med, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "train_examples_per_s": (
                fit_examples / sum(self.log.seconds["fit"]) * slow, "1/s"),
            "eval_examples_per_s": (self.log.rate("evaluate") * slow, "1/s"),
            "cache_users_per_s": (self.log.rate("cache") * slow, "1/s"),
            "topk_users_per_s": (self.log.rate("topk") * slow, "1/s"),
            "lookup_p50_us": (float(np.percentile(lat_us, 50)) / slow_med, "us"),
            "write_rows_per_s": (self.log.rate("write") * slow, "1/s"),
            "read_rows_per_s": (self.log.rate("read") * slow, "1/s"),
            "encode_rows_per_s": (self.log.rate("encode") * slow, "1/s"),
        }

    def per_layer(self, out: dict) -> dict:
        tr = self.tracer
        # Root spans by name, and the direct children of each phase's root.
        by_name: dict = {}
        for s in tr.spans:
            if s.parent is None:
                by_name.setdefault((None, s.name), []).append(s)
            elif tr.spans[s.parent].parent is None:
                by_name.setdefault((tr.spans[s.parent].name, s.name), []).append(s)

        def spans(phase, name):
            return by_name.get((phase and f"phase.{phase}", name), [])

        def ms(root, name):
            return median_seconds(spans(root, name)) * 1e3

        fit_encode = [sum(s.seconds for s in group)
                      for group in _per_trace(spans("fit", "model.encode_examples"))]
        predicts = spans("fit", "evaluation.predict_dataset") + spans(
            "evaluate", "evaluation.predict_dataset")
        encoded = out["encoded"]
        metrics = {
            "data.generate_s": (median_seconds(spans(None, "data.generate")), "s"),
            "model.forward_ms": (ms("fit", "train.mtl_loss"), "ms/step"),
            "diffgraph.backward_ms": (ms("fit", "diffgraph.backward"), "ms/step"),
            "train.adam_ms": (ms("fit", "train.Adam.step"), "ms/step"),
            "model.batch_slice_ms": (ms("fit", "model.EncodedBatch.slice"), "ms/step"),
            "diffgraph.graph_tensors": (tr.graph_tensors or 0, "count/step"),
            "model.fit_encode_s": (median(fit_encode), "s/fit"),
            "evaluation.predict_ms": (median(
                s.seconds * 1e3 * 1024 / s.attrs["rows"] for s in predicts), "ms/1024rows"),
            "evaluation.auc_ms": (median(
                s.seconds * 1e3 for s in spans("fit", "evaluation.auc")
                + spans("evaluate", "evaluation.auc")), "ms/call"),
            "model.cache_encode_ms": (ms("cache", "model.encode_examples"), "ms/chunk"),
            "model.user_expert_outputs_ms": (
                ms("cache", "model.MvkeModel.user_expert_outputs"), "ms/chunk"),
            "model.tag_side_ms": (ms("cache", "model.MvkeModel.tag_side"), "ms/task"),
            "model.user_tower_calls": (out["counters"]["user_tower"], "count"),
            "model.tag_tower_calls": (out["counters"]["tag_tower"], "count"),
            "serve.save_caches_ms": (ms("cache", "serve.save_caches"), "ms"),
            "serve.load_caches_ms": (ms("cache", "serve.load_caches"), "ms"),
            "serve.cache_bytes": (out["cache_bytes"], "bytes"),
            "serve.assign_topk_s": (median_seconds(spans("topk", "serve.assign_topk")), "s/task"),
            "serve.score_from_cache_us": (ms("lookup", "serve.score_from_cache") * 1e3, "us"),
            "data.write_dataset_s": (median_seconds(spans("write", "data.write_dataset")), "s"),
            "data.jsonl_bytes": (out["jsonl_bytes"], "bytes"),
            "data.read_dataset_s": (median_seconds(spans("read", "data.read_dataset")), "s"),
            "model.encode_examples_s": (
                median_seconds(spans("encode", "model.encode_examples")), "s"),
            "model.encoded_bytes": (encoded_bytes(encoded), "bytes"),
        }
        covered: dict = {}
        for s in tr.spans:
            if s.parent is not None and tr.spans[s.parent].parent is None:
                covered[s.parent] = covered.get(s.parent, 0.0) + s.seconds
        for phase in PHASES:
            roots = spans(None, f"phase.{phase}")
            shares = [covered.get(r.span_id, 0.0) / r.seconds for r in roots]
            metrics[f"trace.{phase}_cover_pct"] = (100.0 * median(shares), "%")
        by_order = self.overhead_by_order()
        metrics["trace.overhead_pct"] = (statistics.mean(by_order.values()), "%")
        return metrics

    def overhead_by_order(self) -> dict:
        """Traced over untraced phase time, in %, pooled over the pairs of each order."""
        sums = {True: [0.0, 0.0], False: [0.0, 0.0]}
        for p in PHASES:
            for first, t, u in zip(self.traced_first[p], self.log.seconds[p],
                                   self.untraced.seconds[p]):
                sums[first][0] += t
                sums[first][1] += u
        return {f"traced_{'first' if first else 'second'}": 100.0 * (t / u - 1.0)
                for first, (t, u) in sums.items() if u > 0}


def _clocked(call):
    t0 = time.perf_counter()
    out = call()
    return out, time.perf_counter() - t0


def _per_trace(spans) -> list[list]:
    groups: dict = {}
    for s in spans:
        groups.setdefault(s.trace, []).append(s)
    return list(groups.values())


def encoded_bytes(batch: M.EncodedBatch) -> int:
    arrays = [*batch.field_idx, *batch.field_weight, batch.tag_idx, batch.tag_weight,
              batch.clicks, batch.convs]
    return sum(a.nbytes for a in arrays)


def peak_rss_mb() -> float:
    """Peak resident set of this process; Linux reports kilobytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, scale: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path) -> tuple[dict, list[str], dict, Tracer | None]:
    """Set up, measure and check one workload; the caller prints the result."""
    dg.set_precision("f32")
    work_dir = out_dir / f"work-{name}-{seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    tracer = Tracer() if trace else None
    run = Run(SCALES[scale][name], seed, work_dir, tracer)
    try:
        out = run.run(seconds)
        failures = run.check(out)
        metrics = run.per_layer(out) if trace else run.end_to_end()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    info = {"rounds": run.rounds, "setup_s": run.setup_seconds,
            "attempted": run.log.attempted(), "failed": run.log.failed,
            "lookup_samples": len(run.latencies_ns)}
    if trace:
        info["trace_overhead_pct"] = run.overhead_by_order()
    else:
        info["host_slowdown"] = run.host_slowdown()
        info["unscaled"] = {k: v for k, (v, _) in run.end_to_end(scaled=False).items()}
    return metrics, failures, info, tracer
