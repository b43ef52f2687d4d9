"""Corrupted JSON inputs: `run` and `eval` exit 0, 2 or 3, never with a traceback.

One small dataset and results tree is built once. Each case changes one
JSON value of one file (or cuts the file short), calls cli.main in-process
and restores the file. On exit 2 or 3 no report and no COMPLETE marker may
be written; on exit 0 the output must equal that of the untouched inputs,
unless the edit hit a field listed in CHANGES_OUTPUT.
"""

import copy
import json
import math
import re
import shutil
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from embtrack.cli import main
from embtrack.experiment import COMPLETE_MARKER
from embtrack.scene import SceneSpec

CONFIG = {
    "master_seed": 5,
    "dataset": {"count": 1, "duration": 4.0},
    "run": {"beamformers": ["ds"], "durations": ["whole"]},
    "eval": {"bootstrap_iters": 5},
}
SCENE = "data/scenes/scene_0000"
GROUND_TRUTH = f"{SCENE}/ground_truth.json"
BEFORE = "results/scene_0000/tracks_gt_m2.jsonl"
AFTER = "results/scene_0000/gt_m2_ds_whole/tracks_after.jsonl"
# The JSON files each command reads. run always reads the dataset, and reads
# run_manifest.json when it resumes into a results directory.
READS = {
    "run": ["data/manifest.json", GROUND_TRUTH, f"{SCENE}/enrollment.jsonl", "results/run_manifest.json"],
    "eval": ["data/manifest.json", GROUND_TRUTH, "results/run_manifest.json", BEFORE, AFTER],
}
# eval is also given files it does not read: edits to them change nothing.
FILES = {
    "run": READS["run"],
    "eval": READS["eval"] + [
        f"{SCENE}/enrollment.jsonl",
        "results/scene_0000/gt_m2_ds_whole/assignment.json",
        "results/scene_0000/gt_m2_ds_whole/fragments.jsonl",
    ],
}
# Fields where an edit that exits 0 may change the output, as a pattern of
# "command file path"; a path starts with the line number (0 in a .json).
CHANGES_OUTPUT = [
    # every azimuth is valid, and so is an elevation in [-90, 90]
    r"\S+ \S+ 0 speakers \d+ segments \d+ (azimuth|elevation)",
    r"eval \S+tracks\S+ \d+ frames \d+ [12]",
]


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def read_docs(path: Path) -> list:
    """A .json file's document, or a .jsonl file's line documents."""
    text = path.read_text()
    return [json.loads(line) for line in text.splitlines()] if path.suffix == ".jsonl" else [json.loads(text)]


def write_docs(path: Path, docs: list) -> None:
    """docs in the writers' formats: unchanged documents give the same bytes."""
    if path.suffix == ".jsonl":
        path.write_text("".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs))
    else:
        path.write_text(json.dumps(docs[0], sort_keys=True, indent=2) + "\n")


def nodes(value, path=()):
    """(path, value) of value and of everything inside it."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from nodes(item, (*path, key))


def field(path: tuple) -> str:
    """The field at path, its list indices (a .jsonl line's too) left out."""
    return " ".join("*" if type(key) is int else key for key in path)


def is_number(value) -> bool:
    return type(value) in (int, float)


def other_types(value) -> list:
    """JSON values of types other than value's; an int and a float count as one type."""
    candidates = {"number": 7, "str": "x", "bool": True, "null": None, "list": [], "dict": {}}
    kinds = {str: "str", bool: "bool", list: "list", dict: "dict"}
    kind = "number" if is_number(value) else kinds.get(type(value), "null")
    return [v for k, v in candidates.items() if k != kind]


def parent_of(docs: list, path: tuple):
    for key in path[:-1]:
        docs = docs[key]
    return docs


def change(path: tuple, op: str, new=None):
    """An edit of a file's documents at path: "set" it to new, "delete" it,
    or "duplicate" it (a list item, or a .jsonl line, repeated in place)."""

    def apply(docs: list) -> None:
        parent = parent_of(docs, path)
        if op == "set":
            parent[path[-1]] = new
        elif op == "delete":
            del parent[path[-1]]
        else:
            parent.insert(path[-1], copy.deepcopy(parent[path[-1]]))

    return apply


def truncate(at: int):
    def apply(path: Path) -> None:
        path.write_bytes(path.read_bytes()[:at])

    return apply


class Tree(tuple):
    """(root, the untouched output of each command), shown by its root."""

    def __new__(cls, root: Path, untouched: dict):
        return super().__new__(cls, (root, untouched))

    def __repr__(self) -> str:
        return f"Tree({self[0]})"


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("corruption")
    (root / "config.yaml").write_text(yaml.safe_dump(CONFIG))
    config = ["--config", str(root / "config.yaml")]
    assert main(["gen", *config, "--out", str(root / "data")]) == 0
    assert main(["run", *config, "--dataset", str(root / "data"), "--out", str(root / "results")]) == 0
    report = root / "report.json"
    data, results = ["--dataset", str(root / "data")], ["--results", str(root / "results")]
    assert main(["eval", *config, *data, *results, "--out", str(report)]) == 0
    return Tree(root, {"run": tree_bytes(root / "results"), "eval": report.read_bytes()})


def outcome(tree, command: str, relative: str, edit) -> tuple[int, bool]:
    """Apply edit to one file (to its documents, or with truncate to its
    bytes), call command, check what it wrote and restore the file; returns
    the exit code and whether the output equals the untouched inputs'."""
    root, untouched = tree
    target = root / relative
    original = target.read_bytes()
    out = root / "out"
    try:
        if edit.__qualname__.startswith("truncate"):
            edit(target)
        else:
            docs = read_docs(target)
            edit(docs)
            write_docs(target, docs)
        config = ["--config", str(root / "config.yaml"), "--dataset", str(root / "data")]
        results = out / "results"
        if command == "run":
            if relative.startswith("results/"):  # resuming into the complete results
                shutil.copytree(root / "results", results)
            before = tree_bytes(results) if results.exists() else {}
            code = main(["run", *config, "--out", str(results)])
            assert code in (0, 2, 3)
            written = tree_bytes(results)
            if code:
                assert not any(
                    name.endswith(COMPLETE_MARKER) and name not in before for name in written
                ), f"{command} exit {code} wrote a COMPLETE marker"
            return code, written == untouched["run"]
        out.mkdir()
        report = out / "report.json"
        code = main(["eval", *config, "--results", str(root / "results"), "--out", str(report)])
        assert code in (0, 2, 3)
        if code:
            assert not report.exists(), f"{command} exit {code} wrote a report"
            return code, False
        return code, report.read_bytes() == untouched["eval"]
    finally:
        target.write_bytes(original)
        shutil.rmtree(out, ignore_errors=True)


# Each edit of a number: its new value.
NUMBER_EDITS = {
    "nan": lambda v: math.nan,
    "inf": lambda v: math.inf,
    "-inf": lambda v: -math.inf,
    "negative": lambda v: -abs(v) - 1,
}
KINDS = ("type", *NUMBER_EDITS, "missing", "unknown", "duplicate", "truncate")
# Edits that no declaration takes: any file a command reads is refused with
# one of them, except null where an snr is declared float | None. A repeated
# item is refused too, but in the two lists no command reads.
REFUSED = {"type", "nan", "inf", "-inf", "unknown", "truncate", "duplicate"}
UNREAD_LISTS = r"results/run_manifest.json 0 (cells|scenes) \d+"


@settings(
    max_examples=500, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_a_corrupted_value_exits_0_2_or_3(tree, data):
    command = data.draw(st.sampled_from(sorted(FILES)), label="command")
    relative = data.draw(st.sampled_from(FILES[command]), label="file")
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    docs = read_docs(tree[0] / relative)
    every = [(path, value) for path, value in nodes(docs) if path]
    if kind == "missing":
        fits = [(p, v) for p, v in every if isinstance(parent_of(docs, p), dict)]
    elif kind == "unknown":
        fits = [(p, v) for p, v in every if isinstance(v, dict)]
    elif kind == "duplicate":
        # a .json file is one document, at path (0,): only a .jsonl line is repeated at the top
        lines = relative.endswith(".jsonl")
        fits = [(p, v) for p, v in every if isinstance(parent_of(docs, p), list) and (lines or p != (0,))]
    else:
        fits = every if kind == "type" else [(p, v) for p, v in every if is_number(v)]
    new = None
    if kind == "truncate" or not fits:
        kind, raw = "truncate", (tree[0] / relative).read_bytes()
        # a cut inside a document: at a line end a .jsonl file would just hold fewer lines
        cuts = [i for i in range(1, len(raw) - 1) if raw[i - 1] != ord("\n")]
        edit, where = truncate(data.draw(st.sampled_from(cuts), label="at")), "truncated"
    else:
        # a field first, then one of its places: each field as likely as another however many
        # frames or rows hold it
        fields = sorted({field(p) for p, _ in fits})
        chosen = data.draw(st.sampled_from(fields), label="field")
        path, value = data.draw(st.sampled_from([(p, v) for p, v in fits if field(p) == chosen]), label="path")
        if kind == "type":
            new = data.draw(st.sampled_from(other_types(value)), label="new")
            edit = change(path, "set", new)
        elif kind in NUMBER_EDITS:
            edit = change(path, "set", NUMBER_EDITS[kind](value))
        elif kind == "unknown":
            edit = change((*path, "surplus"), "set", 0)
        else:
            edit = change(path, "delete" if kind == "missing" else "duplicate")
        where = " ".join(map(str, path))
    code, same = outcome(tree, command, relative, edit)
    allowed = (new is None and where.endswith(" snr")) or re.fullmatch(UNREAD_LISTS, f"{relative} {where}")
    if kind in REFUSED and relative in READS[command] and not allowed:
        assert code in (2, 3), f"{command} exit 0 on {kind} at {relative} {where}"
    if code == 0 and not same:
        assert any(re.fullmatch(p, f"{command} {relative} {where}") for p in CHANGES_OUTPUT), (
            f"{command} exit 0 on {kind} at {relative} {where}, with another output"
        )


def segment(field, value, speaker=0, index=0):
    return change((0, "speakers", speaker, "segments", index, field), "set", value)


def out_of_order(docs):
    # the first segment split in two halves, the later one first
    segments = docs[0]["speakers"][0]["segments"]
    first = segments[0]
    middle = (first["onset"] + first["offset"]) / 2
    segments[:1] = [dict(first, onset=middle), dict(first, offset=middle)]


def onset_at_offset(docs):
    first = docs[0]["speakers"][0]["segments"][0]
    first["offset"] = first["onset"]


# Each case of a bad ground truth: (name, edit of ground_truth.json).
GROUND_TRUTH_CASES = [
    ("onset-null", segment("onset", None)),
    ("onset-str", segment("onset", "1.0")),
    ("onset-nan", segment("onset", math.nan)),
    ("azimuth-true", segment("azimuth", True)),
    ("segments-mapping", change((0, "speakers", 0, "segments"), "set", {})),
    ("segments-empty", change((0, "speakers", 0, "segments"), "set", [])),
    ("onset-negative", segment("onset", -1.0)),
    ("offset-beyond-the-scene", change((0, "speakers", 0, "segments", -1, "offset"), "set", 99.0)),
    ("offset-at-onset", onset_at_offset),
    ("out-of-order", out_of_order),
]


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize(
    "edit", [edit for _, edit in GROUND_TRUTH_CASES], ids=[name for name, _ in GROUND_TRUTH_CASES]
)
def test_bad_ground_truth_exit_code(tree, command, edit):
    assert outcome(tree, command, GROUND_TRUTH, edit)[0] == 3


def repeat_a_frame(docs):
    docs[0]["frames"].append(docs[0]["frames"][0])


@pytest.mark.parametrize(
    "edit", [repeat_a_frame, change((0,), "duplicate")], ids=["frame-index-twice", "record-twice"]
)
@pytest.mark.parametrize("relative", [BEFORE, AFTER])
def test_repeated_trajectory_frame_or_record_exit_code(tree, relative, edit):
    # metrics.prediction_frame_doas would let the later frame overwrite the earlier one
    assert outcome(tree, "eval", relative, edit)[0] == 3


@pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
def test_non_finite_snr_exit_code(tmp_path, snr):
    # json.dumps would write NaN or Infinity into manifest.json, which is not JSON
    data = tmp_path / "data"
    assert main(["gen", "--count", "1", "--duration", "1", f"--snr={snr}", "--out", str(data)]) == 2
    assert not (data / "manifest.json").exists()
    with pytest.raises(ValueError, match="snr"):
        SceneSpec(seed=0, snr=float(snr))


def test_written_json_holds_no_non_finite_constant(tree):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    root, _ = tree
    paths = sorted(root.rglob("*.json")) + sorted(root.rglob("*.jsonl"))
    assert len(paths) >= 7
    for path in paths:
        lines = path.read_text().splitlines() if path.suffix == ".jsonl" else [path.read_text()]
        for line in lines:
            json.loads(line, parse_constant=refuse)
