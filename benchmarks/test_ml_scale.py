"""BENCH — compiled ML fast path: forward and training-step scaling.

Times the compiled execution plans (``repro.ml.plan``) against the
reference layer stack on DonkeyModel backbones at the bench frame size
(48x64, scale 0.5):

* **forward** — batched (32) and single-frame, plan vs reference, plus
  the serving-relevant comparison: one compiled batched pass against
  32 serial reference forwards (what a replica would otherwise do);
* **training** — the step ``Trainer`` runs, the model's ``forward(x,
  training=True)`` + ``backward``, vs the reference layer loop
  ``model.net.forward`` + ``model.net.backward``, with the
  bitwise-equality guarantee re-checked on the measured step.  The
  plan step skips the gradient with respect to the images, which no
  trainer reads.

Acceptance (pinned at levels robust to a noisy shared box; quiet-box
measurements are higher — see ROADMAP item 2 for the measured spread):
the compiled batched pass beats serial reference serving >= 1.5x, the
compiled single-frame pass beats the reference >= 1.2x, batched the
plan is never slower than the reference stack (<= 1.15x tolerance),
the linear model's training step is >= 1.25x faster than the reference
step while staying bitwise, and the rnn and 3d steps are never slower
(<= 1.25x tolerance).

All timings are interleaved best-of-N within one process so plan and
reference see the same machine state.
"""

import time

import numpy as np

from repro.ml.models.factory import create_model

from conftest import BENCH_H, BENCH_W, emit, emit_json

MODELS = ("linear", "rnn", "3d")
BATCH = 32
REPEATS = 9


def _interleaved_best(fns, repeats=REPEATS):
    """Best-of-N per function, round-robin so load noise hits all alike."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _batch_for(model, rng, n):
    shape = (
        (n, model.sequence_length, BENCH_H, BENCH_W, 3)
        if model.sequence_length
        else (n, BENCH_H, BENCH_W, 3)
    )
    return rng.random(shape, dtype=np.float32)


def _measure_forward(name):
    model = create_model(name, input_shape=(BENCH_H, BENCH_W, 3), scale=0.5, seed=3)
    net = model.net
    rng = np.random.default_rng(11)
    x32 = _batch_for(model, rng, BATCH)
    x1 = x32[:1].copy()
    plan = net.plan()

    def ref_batched():
        net.forward(x32, training=False)

    def ref_serial():
        for i in range(BATCH):
            net.forward(x32[i : i + 1], training=False)

    def ref_single():
        net.forward(x1, training=False)

    def plan_batched():
        plan.run(x32)

    def plan_single():
        plan.run(x1)

    plan_batched()  # warm: compile + allocate both batch keys
    plan_single()
    rb, rs, r1, pb, p1 = _interleaved_best(
        [ref_batched, ref_serial, ref_single, plan_batched, plan_single]
    )
    return {
        "model": name,
        "batch": BATCH,
        "ref_batched_ms": rb * 1e3,
        "ref_serial_ms": rs * 1e3,
        "ref_single_ms": r1 * 1e3,
        "plan_batched_ms": pb * 1e3,
        "plan_single_ms": p1 * 1e3,
        "plan_vs_ref_batched": rb / pb,
        "plan_batched_vs_ref_serial": rs / pb,
        "plan_vs_ref_single": r1 / p1,
    }


def _measure_train(name):
    model = create_model(name, input_shape=(BENCH_H, BENCH_W, 3), scale=0.5, seed=3)
    rng = np.random.default_rng(13)
    x = _batch_for(model, rng, BATCH)
    y = rng.random((BATCH, 2), dtype=np.float32)

    def ref_step():
        out = model.net.forward(x, training=True)
        model.net.backward(out - y)

    def plan_step():
        out = model.forward(x, training=True)
        model.backward(out - y)

    # Bitwise re-check on the measured workload: identical forward and
    # identical gradients from the two paths (fresh dropout streams per
    # model, so compare two same-seed twins).
    twin = create_model(name, input_shape=(BENCH_H, BENCH_W, 3), scale=0.5, seed=3)
    twin_out = twin.net.forward(x, training=True)
    twin.net.backward(twin_out - y)
    plan_out = model.forward(x, training=True)
    model.backward(plan_out - y)
    assert np.array_equal(plan_out, twin_out)
    for ga, gb in zip(model.grads, twin.grads):
        assert np.array_equal(ga, gb)

    ref_step()  # warm both paths before timing
    plan_step()
    rt, pt = _interleaved_best([ref_step, plan_step])
    return {
        "model": name,
        "batch": BATCH,
        "ref_step_ms": rt * 1e3,
        "plan_step_ms": pt * 1e3,
        "plan_vs_ref_step": rt / pt,
        "bitwise_identical": True,
    }


def test_ml_forward_scale(benchmark):
    rows = benchmark.pedantic(
        lambda: [_measure_forward(name) for name in MODELS],
        rounds=1,
        iterations=1,
    )
    header = (
        f"{'model':>8s} {'refB(ms)':>9s} {'refS(ms)':>9s} {'planB(ms)':>10s} "
        f"{'ref1(ms)':>9s} {'plan1(ms)':>10s} {'B/B':>6s} {'B/S':>6s} {'1/1':>6s}"
    )
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['model']:>8s} {r['ref_batched_ms']:9.2f} "
            f"{r['ref_serial_ms']:9.2f} {r['plan_batched_ms']:10.2f} "
            f"{r['ref_single_ms']:9.3f} {r['plan_single_ms']:10.3f} "
            f"{r['plan_vs_ref_batched']:5.2f}x "
            f"{r['plan_batched_vs_ref_serial']:5.2f}x "
            f"{r['plan_vs_ref_single']:5.2f}x"
        )
    emit("BENCH_ml_forward", "\n".join(lines))
    emit_json("BENCH_ml_forward", {"rows": rows, "repeats": REPEATS})

    by_model = {r["model"]: r for r in rows}
    linear = by_model["linear"]
    # Serving claim: one compiled batched pass replaces 32 serial
    # reference forwards at >= 1.5x (measured 2.4-5x depending on load).
    assert linear["plan_batched_vs_ref_serial"] >= 1.5
    # Single-frame (drive-loop) latency: plan >= 1.2x (measured 1.8-2.9x).
    assert linear["plan_vs_ref_single"] >= 1.2
    # Batched, the plan is never slower than the reference stack.
    for r in rows:
        assert r["plan_batched_ms"] <= r["ref_batched_ms"] * 1.15


def test_ml_train_scale(benchmark):
    rows = benchmark.pedantic(
        lambda: [_measure_train(name) for name in MODELS],
        rounds=1,
        iterations=1,
    )
    header = f"{'model':>8s} {'ref(ms)':>9s} {'plan(ms)':>9s} {'gain':>6s}  bitwise"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['model']:>8s} {r['ref_step_ms']:9.2f} {r['plan_step_ms']:9.2f} "
            f"{r['plan_vs_ref_step']:5.2f}x  {r['bitwise_identical']}"
        )
    emit("BENCH_ml_train", "\n".join(lines))
    emit_json("BENCH_ml_train", {"rows": rows, "repeats": REPEATS})

    by_model = {r["model"]: r for r in rows}
    for r in rows:
        assert r["bitwise_identical"]
        # Never slower than the reference step.
        assert r["plan_step_ms"] <= r["ref_step_ms"] * 1.25
    # The same per-element operations as the reference, minus the
    # unread image gradient, in far fewer numpy calls.
    assert by_model["linear"]["plan_vs_ref_step"] >= 1.25
