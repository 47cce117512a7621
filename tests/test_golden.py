"""Golden output bytes: a fixed matrix of CLI runs whose every output file is
pinned by sha256. Covers both algorithms, every daemon, strategy and initial
preset, hold_rounds, a move and a round ceiling, a graph file, two sweeps,
traces, a color ledger and the scripted reference replay. The trial CSVs
carry the spec hash, so spec hashes are pinned too.

Paths are relative to the test's working directory because graph_file and
script_file enter the spec hash.
"""

import hashlib

import pytest

from mislab.cli import main
from mislab.graphs import random_tree, write_graph

CASES = {
    "anon-ring-sync-ledger": (
        "trial --algorithm anonymous --graph ring --n 9 --daemon synchronous "
        "--init random --trials 3 --master-seed 5 --instrument true",
        ("out", "trace_out", "ledger_out")),
    "anon-grid-subset-alltop": (
        "trial --algorithm anonymous --graph grid --rows 3 --cols 4 "
        "--daemon random_subset --density 0.7 --init all_top --trials 3 "
        "--master-seed 1",
        ("out",)),
    "anon-path-singleton-allbot": (
        "trial --algorithm anonymous --graph path --n 9 --daemon singleton "
        "--init all_bot --trials 2 --master-seed 2",
        ("out", "trace_out")),
    "anon-star-greedy-advx": (
        "trial --algorithm anonymous --graph star --leaves 6 "
        "--daemon conflict_greedy --init adversarial_x --trials 2 --master-seed 3",
        ("out", "trace_out")),
    "anon-scripted": (
        "trial --algorithm anonymous --graph path --n 3 --daemon scripted "
        "--script-file steps.txt --init all_bot",
        ("out", "trace_out")),
    "anon-move-ceiling": (
        "trial --algorithm anonymous --graph ring --n 20 --daemon singleton "
        "--move-ceiling 5 --trials 2",
        ("out",)),
    "anon-file-sync": (
        "trial --algorithm anonymous --graph file --graph-file tree.graph "
        "--daemon synchronous --trials 2 --master-seed 8",
        ("out",)),
    "byz-grid-fair-hold": (
        "trial --algorithm byzantine --graph grid --rows 4 --cols 4 "
        "--daemon aged_fair --fairness 3 --byzantine 0,15 "
        "--strategies 0:oscillate,15:degree_liar:100 --hold-rounds 2 "
        "--trials 2 --master-seed 4",
        ("out", "trace_out")),
    "byz-ring-strategies": (
        "trial --algorithm byzantine --graph ring --n 12 --daemon random_subset "
        "--byzantine 0,4,8 --strategies 0:always_top,4:uniform_random,8:silent "
        "--x-cap 50 --init random --trials 2 --master-seed 6",
        ("out", "trace_out")),
    "byz-er-sync-advx": (
        "trial --algorithm byzantine --graph erdos_renyi --n 12 --p 0.3 "
        "--graph-seed 2 --daemon synchronous --init adversarial_x --trials 2 "
        "--master-seed 7",
        ("out",)),
    "byz-tree-singleton-alltop": (
        "trial --algorithm byzantine --graph random_tree --n 10 --graph-seed 1 "
        "--daemon singleton --init all_top --trials 2",
        ("out",)),
    "byz-greedy-allbot": (
        "trial --algorithm byzantine --graph complete --n 5 "
        "--daemon conflict_greedy --init all_bot --trials 2 --master-seed 9",
        ("out",)),
    "byz-round-ceiling": (
        "trial --algorithm byzantine --graph grid --rows 5 --cols 5 "
        "--daemon aged_fair --init adversarial_x --round-ceiling 1 --trials 2",
        ("out",)),
    "anon-ring-sweep": (
        "sweep --algorithm anonymous --graph ring --daemon synchronous "
        "--sizes 4,8,16 --trials 3 --master-seed 10",
        ("out",)),
    "byz-grid-sweep": (
        "sweep --algorithm byzantine --graph grid --daemon aged_fair "
        "--sizes 6,12 --trials 2 --master-seed 11",
        ("out",)),
    "replay": ("replay", ("trace_out",)),
}

# sha256 of every output file, keyed "case/output"
GOLDEN = {
    "anon-file-sync/out":
        "aee3d43f9eb9a7607d53f18794d05042c38c9e7cf55ba454e364f15857fe71d9",
    "anon-grid-subset-alltop/out":
        "4ffbb9f899c887b501e0ea685a9546a4fe54ccef6292ad3477422d089bf7c44a",
    "anon-move-ceiling/out":
        "9980678f3ad7af673a0a74adf2454a210b715ef0e36a78fce52840133d441542",
    "anon-path-singleton-allbot/out":
        "4532e7c5619fc2e6a07e93880ba3451b51d7c772eb08a7b2e1bf05daf1f144f5",
    "anon-path-singleton-allbot/trace_out":
        "5f55d0938113375493889aea749525aabba261e0ea1858b67dc5a357ff902637",
    "anon-ring-sweep/out":
        "1927af0d1d898f22669a0331e8bff9202121d85e066b3ea008813136d5fddca0",
    "anon-ring-sync-ledger/ledger_out":
        "7eeb9095da57102efe722952e41de53da263b4c2c3639561409fcb8329ac0b8d",
    "anon-ring-sync-ledger/out":
        "3b46d200aee719d302c941c123e1d736ce1b1977b22b6fbbf148c6e82d2eb8ce",
    "anon-ring-sync-ledger/trace_out":
        "14a3f3a903e7a74b242a86176408aaca1d57d4e434b49dbe7b15eb7a45c1e2ac",
    "anon-scripted/out":
        "78d3467858e8c0908a8134bf599dcfb66b94b3317383d850f9c9d820db5132cf",
    "anon-scripted/trace_out":
        "89e31b1cdf1388f139f2e3768e937b6ef489920096368dd119557f9c23827041",
    "anon-star-greedy-advx/out":
        "b19ff5ece858760d0568dd154bbc5125fa9cabda9196fe0bc3367caf87725f3c",
    "anon-star-greedy-advx/trace_out":
        "cfb07bfe624a32725d0e81e471795d315155cb9b674d35a5dd19300bffb57553",
    "byz-er-sync-advx/out":
        "a8411fbf10c34a8ce66593edec22cbec8517fd29b0713e4a0597a34f16b48898",
    "byz-greedy-allbot/out":
        "d48c58bc319d627a0687abf1d7677bf662a578632f05546807998f5fa09168e5",
    "byz-grid-fair-hold/out":
        "0c95e33b6aa706ebf96a1d36ed986a821adda135fd0f91b98d35cda46e81836f",
    "byz-grid-fair-hold/trace_out":
        "740ac944e8770f3b2bdf3b5e6f998a5ce2393dca18e2ffbe2236014860db1712",
    "byz-grid-sweep/out":
        "2e198ccdd5ad7da85dbd3f45be1f7aa31d327068b87e5168d95f7bc91b61f08b",
    "byz-ring-strategies/out":
        "27db40324b70dc29129db8d5f86912f51e84a830fb860315285e93451c342b91",
    "byz-ring-strategies/trace_out":
        "2068ea79053e101616fc6173085e342b57ccbfbfc9bffa0cdc7d4b03d3f773d2",
    "byz-round-ceiling/out":
        "490d65ab2a4ff5226be48d29a95087f8bdc9800fbb750bd635f7dde682924fb4",
    "byz-tree-singleton-alltop/out":
        "194af6bc5a3d1b396ca226a66a26bef1042d7d433eea7ecc4c6629c0c57a8d81",
    "replay/trace_out":
        "02a41eb9af3846a2caf1ddd960ffd66dd55d700aedd52dbd3cfcfbba6e7969df",
}


def _digests(name: str, tmp_path, monkeypatch) -> dict[str, str]:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "steps.txt").write_text("0:candidacy,2:candidacy\n",
                                        encoding="utf-8")
    with open(tmp_path / "tree.graph", "w", encoding="utf-8") as fh:
        write_graph(random_tree(8, seed=3), fh)
    flags, outputs = CASES[name]
    argv = flags.split()
    for key in outputs:
        argv += [f"--{key.replace('_', '-')}", f"{name}.{key}"]
    assert main(argv) == 0
    return {f"{name}/{key}": hashlib.sha256(
                (tmp_path / f"{name}.{key}").read_bytes()).hexdigest()
            for key in outputs}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_are_golden(name, tmp_path, monkeypatch, capsys):
    digests = _digests(name, tmp_path, monkeypatch)
    assert digests == {key: GOLDEN.get(key) for key in digests}
