"""Byte-identity goldens for `opml dispute`.

Each scenario runs `opml dispute --transcript` in-process, with
`--witness-out` in a single-phase game, and pins one sha256 over its exit
code, stdout, transcript and witness bundle (a two-phase game has none). A change that claims to leave dispute
behaviour alone, such as a faster tree or interpreter, must keep every
digest. After an intended change of behaviour, print the new table with
`PYTHONPATH=src python tests/test_transcript_goldens.py` and paste it below.
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from opml import ml
from opml.cli import main

from fixtures import fixture_models

_SYNTHETIC = [
    (f"synthetic-n{n}-k{k}-m{m}-{faulty}",
     ["--synthetic-n", str(n), "--strategy", "fault", "--faulty", faulty,
      "--k", str(k), "--m", str(m), "--seed", "5"])
    for n in (40, 257) for k, m in ((1, 1), (3, 64)) for faulty in ("submitter", "challenger")
]

# The strategies other than `fault`. Without a fault both actors play one
# honest trace, so its roots are queried more than once.
_STRATEGIES = ("wrong-midpoint", "silent", "random")

_SYNTHETIC += [
    (f"synthetic-n257-k3-m4-{strategy}-{faulty}",
     ["--synthetic-n", "257", "--strategy", strategy, "--faulty", faulty,
      "--k", "3", "--m", "4", "--seed", "5"])
    for strategy in _STRATEGIES for faulty in ("submitter", "challenger")
]

_MODEL_NAME = "mlp-argmax-3-5-4"


def _model():
    [(graph, x)] = [(g, x) for name, g, x in fixture_models() if name == _MODEL_NAME]
    return graph, x


def _model_scenarios():
    graph, _ = _model()
    computed = [node.id for node in graph.nodes if node.op not in ("input", "const")]
    return [
        (f"{_MODEL_NAME}-node{node_id}-{protocol}-{faulty}",
         ["--model", "MODEL", "--input", "INPUT", "--protocol", protocol,
          "--fault-node", str(node_id), "--faulty", faulty, "--k", "2", "--m", "4",
          "--seed", str(node_id)])
        for node_id in computed
        for protocol in ("single", "two-phase")
        for faulty in ("submitter", "challenger")
    ] + [
        (f"{_MODEL_NAME}-{strategy}-{fault or 'nofault'}-{protocol}-{faulty}",
         ["--model", "MODEL", "--input", "INPUT", "--protocol", protocol, "--strategy", strategy,
          "--faulty", faulty, "--k", "2", "--m", "4", "--seed", "3"]
         + (["--fault-node", "5"] if fault else []))
        for strategy in _STRATEGIES
        for fault in (None, "node5")
        for protocol in ("single", "two-phase")
        for faulty in ("submitter", "challenger")
    ] + [
        # A later wrong round leaves a span past the node trace's end, where
        # a wrong-midpoint party without a VM fault posts junk roots.
        (f"{_MODEL_NAME}-wrong-midpoint-node{node_id}-k{k}-round{wrong_round}"
         "-two-phase-challenger",
         ["--model", "MODEL", "--input", "INPUT", "--protocol", "two-phase",
          "--strategy", "wrong-midpoint", "--faulty", "challenger",
          "--fault-node", str(node_id), "--k", str(k), "--m", "4",
          "--wrong-round", str(wrong_round), "--seed", "3"])
        for node_id, k, wrong_round in ((4, 3, 2), (5, 3, 3), (10, 2, 2))
    ]


SCENARIOS = _SYNTHETIC + _model_scenarios()

GOLDENS = {
    "synthetic-n40-k1-m1-submitter": "4bf0051afb3a52f1cd5930b98b3d2c09e42b46ea7be9db3da3c8d3ae7be6f586",
    "synthetic-n40-k1-m1-challenger": "6c33fda49d8c6dd090d4323fcfe9ce30c6b109062d75e40481ee20d483fd925a",
    "synthetic-n40-k3-m64-submitter": "77d5b3e84c5ff085852155a28339b4402a837de7e7ebad69c14cb4a9a01230d8",
    "synthetic-n40-k3-m64-challenger": "51075e5845cb7599ea4de216651230316153f7aefbf409e5415f753dbde4232c",
    "synthetic-n257-k1-m1-submitter": "b4b58f0234b63d1362830ab9080271d14555686aa38569add315099519b0005d",
    "synthetic-n257-k1-m1-challenger": "afb1404a70c982c2adab67bbdb09ab47c321e05dfe1ac8fc4d71b630ee48433d",
    "synthetic-n257-k3-m64-submitter": "b7e99d3ed9bb9805afbd58a9f205e430ee7028e35b2a21eb1ca3bad78f85d514",
    "synthetic-n257-k3-m64-challenger": "779503d7835958248b33a10139e36cfe3ea1903123b681713b4240409c5262ea",
    "synthetic-n257-k3-m4-wrong-midpoint-submitter": "1033eb9699e23d48eadca4aacb5a52443222f15a15a47c5403331ca78ae1f214",
    "synthetic-n257-k3-m4-wrong-midpoint-challenger": "1520d9e0297d7eb6922ef26bb27457bab1f71b6efa4dc5a5f9cb694ee4bf3bb0",
    "synthetic-n257-k3-m4-silent-submitter": "66f623bdb172dbd7e005ab15c9aebdf92381058eab6d893d695bf67c408d3ef7",
    "synthetic-n257-k3-m4-silent-challenger": "66f623bdb172dbd7e005ab15c9aebdf92381058eab6d893d695bf67c408d3ef7",
    "synthetic-n257-k3-m4-random-submitter": "1f35620c5bcc77372e3380c8fd004c739dbd54bf3eba014cd9eed051dfb6f594",
    "synthetic-n257-k3-m4-random-challenger": "86e168841ad81cc3565ff025e06ad25b82bfdf82e99ed13dd466f390025c9122",
    "mlp-argmax-3-5-4-node2-single-submitter": "8f96a11cd85d4c00d25b8020eb3a088f9d6bbf46ee03989f6c7c276f017032f6",
    "mlp-argmax-3-5-4-node2-single-challenger": "6393a41119b12ac0da62e122944c128c80a5600ec847e39ce7fe490b9497e2f6",
    "mlp-argmax-3-5-4-node2-two-phase-submitter": "7907f2ad391847b919fa4c077fa52fcfc3e5b2d336ff08e6c3c77d0edfc36a6d",
    "mlp-argmax-3-5-4-node2-two-phase-challenger": "bafd56e4ce82f373ca23fd3631496cfdebc86f23542effe160c22b0550de6507",
    "mlp-argmax-3-5-4-node4-single-submitter": "740102af06a0fb364a84e037f89cb1fb944895e0649a13c00bc0bba9f0cb8dcd",
    "mlp-argmax-3-5-4-node4-single-challenger": "0d341ef9f977bdae32d1565cd3e6d3063ea22d0d8ebf6db4516f94b8f926d77d",
    "mlp-argmax-3-5-4-node4-two-phase-submitter": "22d5e87f00139804028a7998e32b218d05016bd38a5b19044906bb3dca47ae08",
    "mlp-argmax-3-5-4-node4-two-phase-challenger": "b8e77c444f6c9e21bf52ed78252c4e77008be254a6ce5e9627e82b5f6eaffffb",
    "mlp-argmax-3-5-4-node5-single-submitter": "1ec5e3524722e0af1207f31ce744569a311008b8544012bf3100988bdb63cd0e",
    "mlp-argmax-3-5-4-node5-single-challenger": "912281237fbcbecb5d8316ea432bc2b0dd911d2d78ae466f4c5aa76b5179ce89",
    "mlp-argmax-3-5-4-node5-two-phase-submitter": "13f4d590ae7f37aa37a4cf25d93a4e71d4e0b7446f676b46f953ce9a3fe9dfa2",
    "mlp-argmax-3-5-4-node5-two-phase-challenger": "69b275ef9dd777be36182dd12da61c44d4d0896fbc9378e40060db0e8790e3c5",
    "mlp-argmax-3-5-4-node7-single-submitter": "40472d836d9944b7076f4dfd4c399df2f18a17a6f8e2497b6c13c1a1cfce204d",
    "mlp-argmax-3-5-4-node7-single-challenger": "85ae0703ae7025ccb309e9df7d1959cab794614e5c8d0d93240cd8489e530cca",
    "mlp-argmax-3-5-4-node7-two-phase-submitter": "2fc7b1baf86cf20b3d8fb2a436f5115972551ebfc74870561e7fc507f274443c",
    "mlp-argmax-3-5-4-node7-two-phase-challenger": "98f9bb1218a0b05dfdea70619c76abb12f80300ba8d73a057a5cf17e1870fa85",
    "mlp-argmax-3-5-4-node9-single-submitter": "8f0fd3d2822c93a946e8a3cc4ddea2858c74d2f9c9f780025f6fe13c9bc2014e",
    "mlp-argmax-3-5-4-node9-single-challenger": "b65c359fa2c6a447ed98ce16e380405a9a36dfbb6cadf60997922bc2381afc26",
    "mlp-argmax-3-5-4-node9-two-phase-submitter": "e41c26563bf46a516df55538f7a78e4f658910f33baa11f9e0139f2fa43ee837",
    "mlp-argmax-3-5-4-node9-two-phase-challenger": "fc809e6339868d574a564076d7af469aa85e97dca04ab275d68a19a21dfef78c",
    "mlp-argmax-3-5-4-node10-single-submitter": "89a16341c10184030fa8fd2c7110b256b620830018a23a37c988a3492d6060d2",
    "mlp-argmax-3-5-4-node10-single-challenger": "deca18ddded909997c28243dba4aabc1cb0404893e54cc96f52183af8331c838",
    "mlp-argmax-3-5-4-node10-two-phase-submitter": "a9674e27a9d4f90968978eda19f909b103caf0f6c2bf8b8e614cdfb7aef40caa",
    "mlp-argmax-3-5-4-node10-two-phase-challenger": "dd035148cde82c71669ca5ad6c442466b39c76ef98cfa04f4863ebd35733c9af",
    "mlp-argmax-3-5-4-wrong-midpoint-nofault-single-submitter": "636551f6a15a6b87b82fae08f107c8ba93eed9e2e35626a31d69c1fde7112acc",
    "mlp-argmax-3-5-4-wrong-midpoint-nofault-single-challenger": "d32b419090c13b040182a9aef0002682f5a213c69c91631baf07cc11df257247",
    "mlp-argmax-3-5-4-wrong-midpoint-nofault-two-phase-submitter": "99cf10dba95dcad6f159a5bef9013a701cddfd3301de1f663fe226cec9e5de46",
    "mlp-argmax-3-5-4-wrong-midpoint-nofault-two-phase-challenger": "2994fa21ae981059e1b42589935bdd05a97c20e4a192db955b30eff66fc79418",
    "mlp-argmax-3-5-4-wrong-midpoint-node5-single-submitter": "2c36bb5e8bd10891876b003cb7e299be99d5a4e5969036de119797bb7f5f86d1",
    "mlp-argmax-3-5-4-wrong-midpoint-node5-single-challenger": "951c3c8a1d4d78e56a793ad37b09935d13ce73b98315e5c08c994791b2ec68d3",
    "mlp-argmax-3-5-4-wrong-midpoint-node5-two-phase-submitter": "a5d7cec3cc43d4347ea2795eae903556c30251f62013365c38e7ef70f318f232",
    "mlp-argmax-3-5-4-wrong-midpoint-node5-two-phase-challenger": "f44882f135caabf2b5be0510ecf8ba66cfe20d7ce42f98d61e6465442b2644b8",
    "mlp-argmax-3-5-4-silent-nofault-single-submitter": "0b4c86c3c45530cac51387a6c4dc0eeb8698f0a61a2e8ec746e46abffa8e28ec",
    "mlp-argmax-3-5-4-silent-nofault-single-challenger": "0b4c86c3c45530cac51387a6c4dc0eeb8698f0a61a2e8ec746e46abffa8e28ec",
    "mlp-argmax-3-5-4-silent-nofault-two-phase-submitter": "215a0c8a30ba89bc30badf351bc8911fe66651bb57850ca8d5418017d9728e12",
    "mlp-argmax-3-5-4-silent-nofault-two-phase-challenger": "215a0c8a30ba89bc30badf351bc8911fe66651bb57850ca8d5418017d9728e12",
    "mlp-argmax-3-5-4-silent-node5-single-submitter": "3d3bc90971870066bff81b036a7e8fda2474cf5d1be5c2fc163d635e9b220e96",
    "mlp-argmax-3-5-4-silent-node5-single-challenger": "5c53c6e19249a1651a1882eee83b0e017721aef78b677289a3690a2f173630a3",
    "mlp-argmax-3-5-4-silent-node5-two-phase-submitter": "e511bfbdc8ba44839e565bd0346fa6fe06f1ec59aa025835d74149afc613f161",
    "mlp-argmax-3-5-4-silent-node5-two-phase-challenger": "79a9d1dffe190031aa4f8ea5751e98d7e8db8dd75645648aa99f9aa4fa1703d8",
    "mlp-argmax-3-5-4-random-nofault-single-submitter": "29d265a97e1b9ebf804923dcfa5699661544708fb079c24347f6bbf679562af6",
    "mlp-argmax-3-5-4-random-nofault-single-challenger": "c6c5f0f9974bbe47d69e766fc2640fa0e27cfa88917bcdf265975a136a0c0ea5",
    "mlp-argmax-3-5-4-random-nofault-two-phase-submitter": "122d9df552b001c0efee0476e96688aa3b8804a83b7cb6d134b05e7266d4d014",
    "mlp-argmax-3-5-4-random-nofault-two-phase-challenger": "134cbccb6869a87e0a6e34e0c5f6238cd13b96153bc2a48bcc89212bd54a356f",
    "mlp-argmax-3-5-4-random-node5-single-submitter": "29d265a97e1b9ebf804923dcfa5699661544708fb079c24347f6bbf679562af6",
    "mlp-argmax-3-5-4-random-node5-single-challenger": "c6c5f0f9974bbe47d69e766fc2640fa0e27cfa88917bcdf265975a136a0c0ea5",
    "mlp-argmax-3-5-4-random-node5-two-phase-submitter": "e35ce26bf48426f0717eb4d8645c55b0b202a7819c8cf508efd72cf7bd7d40f7",
    "mlp-argmax-3-5-4-random-node5-two-phase-challenger": "134cbccb6869a87e0a6e34e0c5f6238cd13b96153bc2a48bcc89212bd54a356f",
    "mlp-argmax-3-5-4-wrong-midpoint-node4-k3-round2-two-phase-challenger": "43d5c2336b15cae1a83602ddc74bcad7bebd6c0d100765df2b34fd2706c10298",
    "mlp-argmax-3-5-4-wrong-midpoint-node5-k3-round3-two-phase-challenger": "cf7e0bd44dbe5c13283547cf0a83050edf733fd2fa5fb91078d37c48569e4e9e",
    "mlp-argmax-3-5-4-wrong-midpoint-node10-k2-round2-two-phase-challenger": "99de90e63d9620637624a6b8095b927dc19bedd56ed9b0fd18aebe1856aac7f7",
}


def scenario_digest(workdir: Path, argv: list[str]) -> str:
    """sha256 of (exit code, stdout, transcript, witness bundle) of one game."""
    model, inp = workdir / "model.opml", workdir / "input.tensor"
    if not model.exists():
        graph, x = _model()
        ml.save_model(graph, str(model))
        inp.write_bytes(ml.serialize_tensor(x))
    transcript, witness = workdir / "t.jsonl", workdir / "w.bin"
    for path in (transcript, witness):
        path.unlink(missing_ok=True)
    argv = [{"MODEL": str(model), "INPUT": str(inp)}.get(a, a) for a in argv]
    stdout = io.StringIO()
    if "two-phase" not in argv:
        argv += ["--witness-out", str(witness)]
    with contextlib.redirect_stdout(stdout):
        code = main(["dispute", *argv, "--transcript", str(transcript)])
    parts = [str(code).encode(), stdout.getvalue().encode()]
    parts += [path.read_bytes() if path.exists() else b"-" for path in (transcript, witness)]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@pytest.mark.parametrize("name, argv", SCENARIOS, ids=[name for name, _ in SCENARIOS])
def test_dispute_outputs_are_byte_identical(tmp_path, monkeypatch, name, argv):
    monkeypatch.setenv("OPML_HASH", "sha256")
    assert scenario_digest(tmp_path, argv) == GOLDENS[name]


if __name__ == "__main__":
    os.environ["OPML_HASH"] = "sha256"
    with tempfile.TemporaryDirectory() as work:
        for name, argv in SCENARIOS:
            print(f'    "{name}": "{scenario_digest(Path(work), argv)}",')
