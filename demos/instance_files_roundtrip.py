"""Writing, reading and solving instance files.

Instances live in a small JSON format: declared shape, a tagged function
(modular table, weighted coverage, or an explicit value table), a tagged
matroid, and free-form metadata.  The same files drive the ``ksubmax``
command-line tool: ``ksubmax solve FILE --epsilon 0.3``,
``ksubmax verify FILE``, and ``ksubmax bench CONFIG`` for sweeps.
"""

import json
import tempfile
from pathlib import Path

from ksubmax import (
    InstanceSpec,
    PartitionMatroid,
    gen_coverage,
    parse_instance,
    serialize_instance,
    threshold_decreasing_solve,
)


def main():
    f = gen_coverage(4, 2, universe_size=8, density=0.4, seed=9)
    spec = InstanceSpec(
        n=4, k=2,
        function=f,
        matroid=PartitionMatroid(4, blocks=[[0, 1], [2, 3]], capacities=[1, 1]),
        metadata={"origin": "demo", "note": "coverage under a partition matroid"},
    )
    text = serialize_instance(spec)
    print("serialized document (the file holds it on one line):")
    print(json.dumps(json.loads(text), indent=2))

    path = Path(tempfile.mkdtemp()) / "demo_instance.json"
    path.write_text(text)
    loaded = parse_instance(path.read_text())
    print(f"round trip equal: {loaded == spec}")

    rep = threshold_decreasing_solve(loaded.function, loaded.matroid, epsilon=0.3)
    print(f"solved from file: value {rep.value:g}, "
          f"assignment {list(rep.assignment.labels)}")
    print(f"try the CLI on it:  ksubmax solve {path} --epsilon 0.3")
    print(f"                    ksubmax verify {path}")


if __name__ == "__main__":
    main()
