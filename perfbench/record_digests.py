"""Record the CSV digest and |S_k| of every closure pool entry.

The closure workload compares each emitted CSV with this table, so run this
script only at a commit whose closures are known to be right, then commit the
resulting ``digests.json``:

    python3 perfbench/record_digests.py
"""

import csv
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import jobs  # noqa: E402


def main():
    table = {}
    workdir = HERE.parent / ".perfbench_out"
    workdir.mkdir(exist_ok=True)
    ctx = jobs.Context("closure", [], workdir)
    for spec, depth, _ in jobs.CLOSURE_POOL:
        entry = {"spec": spec, "depth": depth, "param": spec.startswith("0,param"),
                 "label": f"{spec}@{depth}"}
        job = jobs._closure_job(ctx, entry)
        code = jobs.call_cli(job.argv)
        if code != 0:
            raise SystemExit(f"{entry['label']}: construct exited {code}")
        data = job.params["out"].read_bytes()
        lines = [line for line in data.decode().splitlines() if not line.startswith("#")]
        firsts = [int(row[5]) for row in list(csv.reader(lines))[1:]]
        sizes = [sum(1 for d in firsts if d <= k) for k in range(depth + 1)]
        table[entry["label"]] = {"sha256": hashlib.sha256(data).hexdigest(), "sizes": sizes}
        print(entry["label"], sizes, flush=True)
    jobs.DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
