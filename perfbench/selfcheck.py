"""The benchmark's own checks.

    python3 perfbench/selfcheck.py

1. Each generator is byte-identical for a given seed and differs across seeds.
2. The oracle flags a deliberately perturbed endpoint (CLI report and
   library result).
3. The ``fd-rank-noise`` tag matches only its documented signature; any
   other over-counted rank profile stays an untagged failure.
4. The predicted zeros hold in a traced run: no flow calls on ``jets`` and
   no jet-norm evaluations on ``switching``.

Exits 0 when every check passes, 1 otherwise.
"""

import run  # noqa: I001  (pins the thread environment before numpy loads)

import shutil
import sys
import time


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import claims
    import gen
    import oracle
    import spans

    work = run.WORK / f"selfcheck-{time.time_ns()}"
    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    try:
        for w in gen.GENERATORS:
            a, b = gen.serialize(w, 7, 12), gen.serialize(w, 7, 12)
            check(a == b and a != gen.serialize(w, 8, 12), f"{w}: generator is byte-identical per seed")

        # a CLI flow report and a compose report, then the same with the endpoint moved
        item = next(gen.switching(3))
        out = work / "perturb"
        clock = claims.ClaimClock()
        clock.install()
        try:
            outcome = claims.run_cli_item(item, out, clock)
        finally:
            clock.uninstall()
        check(all(v.ok for v in outcome.verdicts), "switching item passes the oracle as produced")
        model = gen.model_of(item["family"])
        for i, cmd in enumerate(item["commands"], start=1):
            if cmd["cmd"] not in ("flow", "compose"):
                continue
            rep = oracle.read_report((out / f"report-{i:02d}-{cmd['cmd']}.txt").read_text())
            tol = float(rep["results.endpoint-tolerance"][0][0])
            moved = float(rep["results.endpoint"][0][0]) + 3.0 * tol
            rep["results.endpoint"][0][0] = repr(moved)
            v = oracle.check_command(model, item["family"], cmd, rep, out)
            check(not v.ok, f"oracle flags a {cmd['cmd']} endpoint moved by 3 x tolerance")

        item = next(gen.enlarge(3))
        family, lb = claims.build_library_family(item)
        ctx = claims.new_context(lb)
        for call in item["calls"]:
            result = claims.call(family, lb, call, ctx)
            claims.remember(ctx, call, result)
            if call["op"] == "conjugate_flow":
                m = gen.model_of(item["family"])
                check(oracle.check_call(m, call, result, ctx).ok, "conjugation identity holds as produced")
                result.endpoint[0] += 30.0 * call["tol"] * (1.0 + abs(result.endpoint).max())
                check(not oracle.check_call(m, call, result, ctx).ok,
                      "oracle flags a perturbed conjugated-flow endpoint")
                break

        for d, exact, got, tagged in (
                (7, (2, 3, 4, 5, 6, 7), (2, 3, 4, 5, 7), True),
                (6, (2, 3, 4, 5), (2, 3, 4, 6), True),
                (7, (2, 3, 4, 5, 6, 7), (2, 3, 5, 7), False),
                (7, (2, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 6), False),
                (5, (2, 3, 4, 5), (2, 3, 5), False),
                (6, (2, 3, 4), (2, 3, 5), False)):
            m = gen.model_of({"kind": "chain", "dim": d, "coeffs": [1.0] * (d - 2), "radius": 1.0})
            hit = oracle.rank_defect(m, exact, got) == oracle.FD_RANK_NOISE
            check(hit == tagged, f"fd-rank-noise {'tags' if tagged else 'leaves untagged'} "
                                 f"{got} for {exact} in dim {d}")

        for w, name, items in (("jets", "flow.calls", 4), ("switching", "fields.jet_norm.count", 2)):
            tracer = spans.Tracer()
            run.measure(w, 5, 0.0, work / f"zeros-{w}", tracer=tracer, items=items)
            value = spans.per_layer(tracer, 1.0, 1.0)[name][0]
            check(value == 0, f"{w}: predicted zero {name} = {value:g}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
