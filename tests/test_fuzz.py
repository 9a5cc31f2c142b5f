"""Seeded fuzz: mutated scenario files and checkpoints end in exit 0, 2 or 3.

Each of the five scenario files and a trained checkpoint is mutated a fixed
number of times (bit flips, truncation, a dropped or swapped field, a
non-numeric value) and fed to `cli.main` in-process. Any other exit code, or
any exception escaping `main`, is a hole in the input handling.
"""

import json
import shutil

import numpy as np
import pytest

from fleetlab.cli import main

SCENARIO_FILES = ("graph.json", "calls.csv", "drivers.csv", "speeds.csv", "initial_idle.csv")
FILES = SCENARIO_FILES + ("checkpoint.json",)
MUTATIONS_PER_FILE = 64
ODD_VALUES = ("abc", "", "nan", "inf", "-1", "1e999", "0x1f", "9" * 30, " ")
ODD_JSON = ("abc", None, [], {}, -1, 1e308, float("nan"), True, "9" * 30, [[1]])


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    city = root / "city"
    assert run(["gen", "--roads", "6", "--steps", "8", "--mean-calls", "0.4",
                "--drivers", "5", "--seed", "1", "--out", str(city)]) == 0
    # gen writes no speed overrides at a constant speed; give the file rows to mutate
    (city / "speeds.csv").write_text("t,road,speed\n0,1,350.0\n2,3,420.5\n5,1,600.0\n")
    assert run(["train", "--scenario-dir", str(city), "--gnn", "gcn", "--layers", "1",
                "--hidden", "4", "--policy", "pow", "--epochs", "1", "--steps", "2",
                "--out", str(root / "run")]) == 0
    shutil.copy(root / "run" / "checkpoint.json", root / "checkpoint.json")
    return root


def flip_bits(rng, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        out[int(rng.integers(len(out)))] ^= 1 << int(rng.integers(8))
    return bytes(out)


def truncate(rng, data: bytes) -> bytes:
    return data[: int(rng.integers(len(data)))]


def mutate_csv(rng, data: bytes, how: str) -> bytes:
    lines = data.decode().splitlines()
    i = int(rng.integers(len(lines)))
    fields = lines[i].split(",")
    j = int(rng.integers(len(fields)))
    if how == "drop":
        del fields[j]
    elif how == "swap":
        k = (j + 1 + int(rng.integers(len(fields) - 1))) % len(fields) if len(fields) > 1 else j
        fields[j], fields[k] = fields[k], fields[j]
    else:
        fields[j] = ODD_VALUES[int(rng.integers(len(ODD_VALUES)))]
    lines[i] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


def json_slots(node):
    """Every (container, key) pair inside a parsed JSON document."""
    slots = []
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return slots
    for key, child in items:
        slots.append((node, key))
        slots.extend(json_slots(child))
    return slots


def mutate_json(rng, data: bytes, how: str) -> bytes:
    doc = json.loads(data)
    slots = json_slots(doc)
    container, key = slots[int(rng.integers(len(slots)))]
    if how == "drop":
        del container[key]
    elif how == "swap":
        other, other_key = slots[int(rng.integers(len(slots)))]
        container[key], other[other_key] = other[other_key], container[key]
    else:
        container[key] = ODD_JSON[int(rng.integers(len(ODD_JSON)))]
    return json.dumps(doc).encode()


def mutate(rng, name: str, data: bytes) -> tuple[str, bytes]:
    how = ("flip", "truncate", "drop", "swap", "value")[int(rng.integers(5))]
    if how == "flip":
        return how, flip_bits(rng, data)
    if how == "truncate":
        return how, truncate(rng, data)
    if name.endswith(".json"):
        return how, mutate_json(rng, data, how)
    return how, mutate_csv(rng, data, how)


@pytest.mark.parametrize("name", FILES)
def test_mutated_inputs_exit_cleanly(pristine, tmp_path, name):
    rng = np.random.default_rng([20261018, FILES.index(name)])
    original = (pristine / ("" if name == "checkpoint.json" else "city") / name).read_bytes()
    for trial in range(MUTATIONS_PER_FILE):
        work = tmp_path / f"trial{trial}"
        shutil.copytree(pristine / "city", work / "city")
        shutil.copy(pristine / "checkpoint.json", work / "checkpoint.json")
        how, data = mutate(rng, name, original)
        target = work / "checkpoint.json" if name == "checkpoint.json" else work / "city" / name
        target.write_bytes(data)
        common = ["--scenario-dir", str(work / "city"), "--steps", "3"]
        if trial % 2:
            argv = ["train", *common, "--resume", str(work / "checkpoint.json"),
                    "--epochs", "2", "--out", str(work / "run")]
        else:
            argv = ["eval", *common, "--baselines", "random,proportional",
                    "--checkpoint", str(work / "checkpoint.json"), "--out", str(work / "t.csv")]
        rc = run(argv)
        assert rc in (0, 2, 3), (name, trial, how, data[:200])
