"""Frozen digests of whole reports, so that a change meant to keep the
program's output byte-identical is checked against the output it started
from.

Each digest is the SHA-256 of a report: the rendered ``run_all_suites``
report at three fixed configurations, and the exit code, stdout and stderr of
``diexact pushout`` on fixed documents under every method, with and without
``--image-first``, and with no mutant or each of the four.  A change that
alters a report on purpose renews the digest it changes and says why.
"""

import contextlib
import hashlib
import io
import random

import pytest

from diexact import mutants
from diexact.cli import main
from diexact.suites import SuiteConfig, run_all_suites
from test_cli import FUZZ_SEEDS

MUTANT_SETTINGS = (None,) + mutants.KNOWN

SUITE_CONFIGS = {
    "max-size=2 exhaustive samples=10 seed=7": dict(
        max_size=2, exhaustive=True, samples=10, seed=7
    ),
    "max-size=3 samples=60 seed=42": dict(max_size=3, samples=60, seed=42),
    "max-size=3 exhaustive samples=20 seed=3": dict(
        max_size=3, exhaustive=True, samples=20, seed=3
    ),
}

SUITE_DIGESTS = {  # per configuration: no mutant, then each of mutants.KNOWN
    "max-size=2 exhaustive samples=10 seed=7": (
        "0a94fc88c3ae793634357d41bd9816a799ce84bfa4cf05d39bd989ef9c46c850",
        "c31dd6ea5f13a9e682eac06f2c092e9f663c03243d97a03b82d00f403a1d97cd",
        "8c8f78fb9c49b2eecb99ab53d4ac11cabf6074b9c93ea99616cda311290ebd74",
        "0180410a2729bcd578987d873aa9bfed2d483fbb773551109f73a0b286d2cc59",
        "12eaa69d4b0e2a1757a0123dcd40b684f7841b1bdd231e15cadc0be571bf2df7",
    ),
    "max-size=3 samples=60 seed=42": (
        "c2c8bddd5b19be747db35f6aad382b9c0857c256fb832bfefddea603f021a101",
        "fa6debb3f505549b9c5843452169eea3351e7a3c150f9cf309a7243022869f66",
        "2b3fe5c17b99de29288bc3f80c95b187c72218d36f59f6eaa3a43a60c5996c1d",
        "73a8a7309033fbe89185dd7614b3e7c429de5601562fad5b08b7e3a2466a2f6a",
        "f84852e0bc03f27f57ca54d4016de472482995ae92dde6228855d96c18851f3a",
    ),
    "max-size=3 exhaustive samples=20 seed=3": (
        "18afaf9aa53ebebbab924b9bc6f113eac49c54fa7a3f4b9a88d1b8a0b4981dfb",
        "f02f0b3e0fbb4fe205c5e37ca211b501821c8b7ea3e28c9920a1c147a3e38570",
        "4de2eacf29863fe21787edf2b97cbc8ac2ac7db50d9d26dd8c2dd4fc1284778a",
        "46203009898ffec13d4844ca2ef522a3a1eaad6e46493bca3911e0530f07dae7",
        "34c1de1ae97e7877c8cc7c47a4db3ced75c05f20ed1b84af397a3121b2894d01",
    ),
}


def _relation_document(rng: random.Random) -> str:
    """A relation between two small sets.  Most are difunctional by
    construction: each element joins one of a few blocks, or none with
    chance 1/5, and the elements of A and B that share a block are related.
    The rest hold at each cell by a coin toss, so most of those are refused."""
    a = [f"a{i}" for i in range(1, rng.randint(1, 5) + 1)]
    b = [f"b{i}" for i in range(1, rng.randint(1, 5) + 1)]
    if rng.random() < 0.7:
        blocks = rng.randint(1, 3)
        block = {x: rng.randrange(blocks) if rng.random() < 0.8 else None for x in a + b}
        pairs = [(x, y) for x in a for y in b if block[x] == block[y] is not None]
    else:
        pairs = [(x, y) for x in a for y in b if rng.random() < 0.3]
    body = ", ".join(f"({x},{y})" for x, y in pairs)
    return (
        f"set A = {{{', '.join(a)}}}\nset B = {{{', '.join(b)}}}\n"
        f"rel R : A -|> B = {{{body}}}\n"
    )


_rng = random.Random(2012)
DOCUMENTS = (
    *FUZZ_SEEDS,
    "set A = {a}\nset B = {b}\nrel R : A -|> B = {}\n",
    "set A = {a}\nnonsense\n",
    *(_relation_document(_rng) for _ in range(10)),
)

PUSHOUT_DIGESTS = (
    "7bf47c4e1982568f129793b00875f06e3ca81daa2deeb07e0cfc8c5cd25f011f",
    "a085f74156670a49cefcd7b80be655a043b22d3ccfdb04f6f1f22095bf3d5444",
    "c62bca25089433ac003cf4acb0c09a170d983699693daa4d061cc68c52240f70",
    "440a53d5a96044630df5c9875700c7e93539266bd53cdad8110938d5a571182f",
    "7d15ee565af0db36d96860c5aef6a8f31ee2b8a9c1ccc02f3eeb33d85d662bfa",
    "381a5534634f2e3e58cc6424faf0b5f28cd247ddb30d0a2f5123643d67d442f0",
    "37976127ac1f993d3e513b32ba5a59610caf04db3618747f0995a4c306c5fc38",
    "e235719f73810b3ba8eedbbd6ba9c9b9f8ab3e7eff194727834d4f86a1231e10",
    "dfdc7c47e60d0b98997a5702f04ef2c2561be51c2fa59bec9f15b3d4f9bde265",
    "9b44577c43ce24567b87cff833bdfcc8c0daf39c28d4beda8497413b7ee11b85",
    "dbe2b0511b6eab56a8dbe9199cc2919a1b288643d83843b6f3d90abb4a1e6603",
    "38c723592f603a34e895af4c6f9451bb2b21fca0783acaab5d98d5ef9ab6b5f0",
    "7a22000cf746e6c59e4a6f7b49a7c60ebcdf790a57291e351ad29f576fa8d367",
    "fe58dcfc9f127dc7808800b9ca98538f07cd0ec9897c243ccfe2a570a0e1dfe7",
    "c87581da971dead79f074c1087381ce7d5b916c0e1cbdff9744fcff2aef53232",
    "42fe70e8262f9757588f853c415f0997eca1ff1bd8ad879319eeb62af337f370",
    "b2acc2589241df282c4f4a0886ebc31984c5818a9b22207db692490fbcb0e349",
    "3ffe8bbe8d7af14ed802e232afe54532bc9ad21651e38bab0bd7c6459bc2b84c",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("label", SUITE_CONFIGS)
@pytest.mark.parametrize("index, mutant", enumerate(MUTANT_SETTINGS))
def test_suite_report_is_frozen(label, index, mutant):
    config = SuiteConfig(**SUITE_CONFIGS[label], mutant=mutant)
    assert _sha(run_all_suites(config).render()) == SUITE_DIGESTS[label][index]


def _pushout_transcript(document: str, monkeypatch) -> str:
    """Every ``pushout`` run of one document, one line per run with its
    flags, exit code, stdout and stderr."""
    runs = []
    for mutant in MUTANT_SETTINGS:
        for method in ("direct", "decomposed", "both"):
            for image_first in (False, True):
                args = ["pushout", "--method", method]
                args += ["--image-first"] * image_first
                args += ["--mutant", mutant] * (mutant is not None)
                monkeypatch.setattr("sys.stdin", io.StringIO(document))
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(args)
                runs.append(repr((args, code, out.getvalue(), err.getvalue())))
    return "\n".join(runs)


@pytest.mark.parametrize("index", range(len(DOCUMENTS)))
def test_pushout_reports_are_frozen(index, monkeypatch):
    transcript = _pushout_transcript(DOCUMENTS[index], monkeypatch)
    assert _sha(transcript) == PUSHOUT_DIGESTS[index]
