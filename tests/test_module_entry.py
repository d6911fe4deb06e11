"""``python -m depcalc`` in a fresh interpreter: exit codes, clean shutdown, and
output that does not depend on the hash seed or on object addresses."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from depcalc import ZIGZAG, derive_structure_map, format_proof, from_pairs, is_expressible
from depcalc.poset import to_json_dict
from depcalc.structure_maps import proof_to_json_dict

from conftest import random_sp_poset

SRC = Path(__file__).resolve().parents[1] / "src"


def depcalc(*argv, hash_seed="0"):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "-m", "depcalc", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def write(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload),
                        encoding="utf-8")
        return path

    return _write


def test_check_exit_codes(write):
    expressible = write("p.json", {"elements": 3, "relations": [[0, 1], [0, 2]]})
    done = depcalc("check", "--poset", expressible)
    # Nothing follows the result line, not even at interpreter shutdown.
    assert (done.returncode, done.stdout, done.stderr) == (0, "expressible\n", "")

    done = depcalc("check", "--poset", write("z.json", to_json_dict(ZIGZAG)))
    assert done.returncode == 1
    assert done.stdout == "not expressible; zig-zag at 0 1 2 3\n" and done.stderr == ""

    done = depcalc("check", "--poset", write("bad.json", '{"elements": 3, "relations": ['))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def _crossing_pair():
    """A seeded inclusion between expressible posets whose derivation crosses."""
    rng = random.Random(20261019)
    while True:
        q = random_sp_poset(rng, 24)
        other = random_sp_poset(rng, 24)
        p = from_pairs(24, set(q.pairs()) & set(other.pairs()))
        if is_expressible(p) and "interchanger-subst" in format_proof(derive_structure_map(p, q)):
            return p, q


def test_derive_output_is_the_same_under_any_hash_seed(write):
    p, q = _crossing_pair()
    source, target = write("p.json", to_json_dict(p)), write("q.json", to_json_dict(q))
    proof = derive_structure_map(p, q)
    expected = {
        "json": json.dumps(proof_to_json_dict(proof), sort_keys=True) + "\n",
        "text": format_proof(proof) + "\n",
    }
    for fmt, want in expected.items():
        outputs = []
        for seed in ("1", "4242"):
            done = depcalc("derive", "--source", source, "--target", target, "--format", fmt,
                           hash_seed=seed)
            assert (done.returncode, done.stderr) == (0, "")
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1] == want
