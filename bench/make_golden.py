"""Write golden.json: the output items of every unit of every workload.

    python3 bench/make_golden.py

Run it only on a commit whose outputs are trusted (verify passes); the
benchmark then fails any item that differs.  It also refuses to write when a
malformed CLI line (id "bad/...") does not exit with 1 or 2, or a valid one
does not exit with 0.
"""

import json
import os
import shutil
import sys

import run


def main() -> int:
    run.import_program()
    import child
    import workloads

    def run_child(fn):
        return child.run(fn, run.UNIT_TIMEOUT_S)

    golden = {}
    workdir = os.path.join(run.ROOT, ".bench_work", f"golden-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name in workloads.WORKLOADS:
            stdin_of = {}
            if name == "cli-session":
                stdin_of, problems = run.prepare_cli(workdir, run_child)
                if problems:
                    print("; ".join(problems), file=sys.stderr)
                    return 1
            golden[name] = {}
            for unit in workloads.build(name, workdir, stdin_of):
                payload, error, _ = run_child(lambda: run.unit_body(unit, 0, False, None))
                if unit.cold:
                    shutil.rmtree(unit.cold, ignore_errors=True)
                if error:
                    print(f"{unit.id}: {error}", file=sys.stderr)
                    return 1
                items = payload["items"]
                if name == "cli-session":
                    code = items[0].split(":")[0]
                    want = ("1", "2") if unit.id.startswith(("bad/", "recover/bad")) else ("0",)
                    if code not in want:
                        print(f"{unit.id}: exit {code}, expected one of {want}", file=sys.stderr)
                        return 1
                golden[name][unit.id] = items
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.BENCH, "golden.json"), "w") as fh:
        # one unit per line, so a diff names the units whose outputs changed
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: {{\n" + ",\n".join(
                f"  {json.dumps(uid)}: {json.dumps(items)}" for uid, items in sorted(units.items()))
            + "\n}" for name, units in golden.items()) + "\n}\n")
    print({name: sum(map(len, units.values())) for name, units in golden.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
