"""Golden artifacts: fixed small configs whose artifact data must not change.

Each case runs run_pipeline on a fixed input and compares the sha256 of
every artifact's data lines with a recorded digest; run stage by stage
through the command line, it must give the same artifacts. The `# key=value`
header lines are left out, since the stage hashes in them cover the
input's path; metrics.json is compared by its rows, and manifest.json by
every field but the hash, the trace label and the artifact digests. The
digests were recorded from the pipeline before the columnar transaction
log and CTF, so they hold the README's byte-identical contract across
refactors. A change that means to alter an artifact records new digests
and says why.
"""

import hashlib
import json
import random

import pytest

from ctgroup import cli, pipeline
from ctgroup.pipeline import PipelineConfig, run_pipeline

POLICIES = "lru,fifo,group_merged,group_prefetch"

# case -> config keys besides the input and output_dir
CASES = {
    "defaults": {},
    "snapshot": {"mode": "snapshot"},
    "include_partial": {"include_partial": "true"},
    "ascending": {"sort": "ascending"},
    "no_write_allocate": {"M": "131072", "write_allocate": "false", "policies": POLICIES},
    "sigma_0_3": {"sigma": "0.3"},
}
# cases that read a CSV trace with writes; the others a synthetic spec
CSV_CASES = {"no_write_allocate"}

DIGESTS = {
    "ascending": {
        "chunks.tsv": "044c8c7b8bd92a293ee7e283346c479bbabedc2d1ba3af168c3478ca52a0e104",
        "ctf.tsv": "1867af9493124a1e4b4121ea13e82656dc4dac1f51ffb2f57c39bcb6834ccc71",
        "grouping.csv": "644df144b647cce3706c615f1f7b3942b04b66ee76c1b00dcbb8117b34b933ae",
        "manifest.json": "42cb7b4a821caf513910362cc2da88c95489d3686a0a543ebe075a4585356f78",
        "metrics.csv": "9dc233a702ba55060a8f26d652d934f2e91f564a51c2469e44d7205c0ab58abc",
        "metrics.json": "8c8b5d853e1a324c3fcdf16672abe22a6108920bbea7a9278a3a0e70041aed8c",
        "transactions.tsv": "d87ae37eb4011cedb9190482dea6d5e55744ac507bec2c19ff49f8049f224738",
    },
    "defaults": {
        "chunks.tsv": "044c8c7b8bd92a293ee7e283346c479bbabedc2d1ba3af168c3478ca52a0e104",
        "ctf.tsv": "1867af9493124a1e4b4121ea13e82656dc4dac1f51ffb2f57c39bcb6834ccc71",
        "grouping.csv": "7cea53dd0c593c4dec5614eaf33b323d30a820fd80e9b3c0e6b7ec1ddbf9b54e",
        "manifest.json": "3972e0a5ae3d4428e3039df5306f5ef7674ef29247c8d682cdfa42d2a4071893",
        "metrics.csv": "d75c28ed74b5f2db7e62d079e610a87e1ce6339228aacd2cf52679cb9700cc2c",
        "metrics.json": "3be2eacd60d4f872eb25f6c475148df5ff8b66792ca7e4152d93a22159e22358",
        "transactions.tsv": "d87ae37eb4011cedb9190482dea6d5e55744ac507bec2c19ff49f8049f224738",
    },
    "include_partial": {
        "chunks.tsv": "044c8c7b8bd92a293ee7e283346c479bbabedc2d1ba3af168c3478ca52a0e104",
        "ctf.tsv": "9357b163c640a0e387ce78b73655e4df984fcdfa6bcba8fc586e51c35d6d09fa",
        "grouping.csv": "7cea53dd0c593c4dec5614eaf33b323d30a820fd80e9b3c0e6b7ec1ddbf9b54e",
        "manifest.json": "3972e0a5ae3d4428e3039df5306f5ef7674ef29247c8d682cdfa42d2a4071893",
        "metrics.csv": "d75c28ed74b5f2db7e62d079e610a87e1ce6339228aacd2cf52679cb9700cc2c",
        "metrics.json": "3be2eacd60d4f872eb25f6c475148df5ff8b66792ca7e4152d93a22159e22358",
        "transactions.tsv": "d87ae37eb4011cedb9190482dea6d5e55744ac507bec2c19ff49f8049f224738",
    },
    "no_write_allocate": {
        "chunks.tsv": "b9775071f958c2c034a181a900e51d6e63f202460905007ded67267432bebd22",
        "ctf.tsv": "4b12cf3b8973d5d748baf6f105cd98cc3e0098ef7e9754e592d2654425286144",
        "grouping.csv": "7c1063d9dec12bee1c25f452dc4f05c76f461e7d10a10f19bbdc2d0883dbae98",
        "manifest.json": "d424dce93403bcfb469f40e2a8ee867971aced6985f9a7dbfece360751a74896",
        "metrics.csv": "60ddb879cf9e56276957e4f70af000fc3e755f00df0854d32d2f1e36125f20c4",
        "metrics.json": "e723debb13dabf1355524ec7d4627dd9958f308a91218ae8782e365c9170f1b9",
        "transactions.tsv": "41d69be97364276c257e80103d8ae248aa72e2136d09ce645747d1db4b2b9203",
    },
    "sigma_0_3": {
        "chunks.tsv": "b66d4412b6c229c970bad8f97fb5996322537365718cdce37ce77237ca7846ff",
        "ctf.tsv": "1867af9493124a1e4b4121ea13e82656dc4dac1f51ffb2f57c39bcb6834ccc71",
        "grouping.csv": "7cea53dd0c593c4dec5614eaf33b323d30a820fd80e9b3c0e6b7ec1ddbf9b54e",
        "manifest.json": "50f2ffa7b19ad389ea08a87b5500334a14c34ab90ad23acc63c9baf7ea0aa444",
        "metrics.csv": "d75c28ed74b5f2db7e62d079e610a87e1ce6339228aacd2cf52679cb9700cc2c",
        "metrics.json": "3be2eacd60d4f872eb25f6c475148df5ff8b66792ca7e4152d93a22159e22358",
        "transactions.tsv": "d87ae37eb4011cedb9190482dea6d5e55744ac507bec2c19ff49f8049f224738",
    },
    "snapshot": {
        "chunks.tsv": "baea8ea57372abacea4446ff7e0ae9aae3e95f80856b2d7858f6bc2b2cb6dbed",
        "ctf.tsv": "111c4b7cd4abb68b760d572949539c78dbd4fbf35b73e57b698aca106e59f823",
        "grouping.csv": "abe8dd587baedc6f72990e80b130cdcec199f4cdb88c3e769364eaebbd5bd6a8",
        "manifest.json": "df91d1e659c73f403a8ea928863c007a1befead2b78c7f9fe6bf8131b47f9d03",
        "metrics.csv": "f03faa2963dde0203c93050113ddf4a089b09418277296b3e1b347c174b389f6",
        "metrics.json": "b94fc5bbc21794015e1adc99d1f6d7a36c637381668b1021488f934ae023f8c2",
        "transactions.tsv": "d95023bd8e607824872e42c75b859fa2868aae0ce0e0da49a3f6a31cbe6c2485",
    },
}


def write_spec(path):
    groups = ",".join(["8x1.0"] * 10 + ["4x0.8"] * 10 + ["16x0.6"] * 5)
    path.write_text(f"num_data=300\nnum_accesses=20000\ngroups={groups}\nrng_seed=5\n")


def write_trace(path):
    """An MSR-layout CSV with writes, mixed sizes and co-accessed runs."""
    rng = random.Random(11)
    sizes = [rng.choice((512, 4096, 16384, 65536)) for _ in range(400)]
    lines = []
    for t in range(1, 2500):
        first = rng.randrange(0, 400, 6)
        for datum in range(first, min(first + rng.randint(1, 6), 400)):
            op = "Write" if rng.random() < 0.3 else "Read"
            size = sizes[datum] if rng.random() < 0.9 else 8192
            lines.append(f"{t},h,0,{op},{datum << 17},{size},0")
    path.write_text("\n".join(lines) + "\n")


def data_digests(out_dir, names=pipeline.ARTIFACTS + ("manifest.json",)) -> dict:
    digests = {}
    for name in names:
        text = (out_dir / name).read_text()
        if name == "metrics.json":
            text = json.dumps(json.loads(text)["rows"], sort_keys=True)
        elif name == "manifest.json":
            manifest = json.loads(text)
            for key in ("config_hash", "trace_label", "artifacts"):
                del manifest[key]
            text = json.dumps(manifest, sort_keys=True)
        else:
            text = "".join(line for line in text.splitlines(True)
                           if not line.startswith("#"))
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def case_values(tmp_path, case) -> dict:
    """The case's config keys, its input written under tmp_path."""
    values = {"output_dir": str(tmp_path / "out")}
    if case in CSV_CASES:
        values["trace"] = str(tmp_path / "trace.csv")
        write_trace(tmp_path / "trace.csv")
    else:
        values["synthetic"] = str(tmp_path / "spec.cfg")
        write_spec(tmp_path / "spec.cfg")
    values.update(CASES[case])
    return values


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_data_unchanged(tmp_path, case):
    run_pipeline(PipelineConfig.from_mapping(case_values(tmp_path, case)))
    assert data_digests(tmp_path / "out") == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_staged_artifact_data_unchanged(tmp_path, case, capsys):
    flags = [arg for key, value in case_values(tmp_path, case).items()
             for arg in (f"--{key}", value)]
    for stage in pipeline.STAGES:
        assert cli.main([stage, *flags]) == 0, capsys.readouterr().err
    expected = {name: DIGESTS[case][name] for name in pipeline.ARTIFACTS}
    assert data_digests(tmp_path / "out", pipeline.ARTIFACTS) == expected
