"""CLI subcommands print exactly what they printed when recorded.

Each command runs in-process through cli.main; its stdout's sha256 must
match the digest recorded below.  A refactor that changes any byte of a
table, a verification report, a homology report or an export shows up here.
The --help texts are pinned the same way, at a fixed width of 80 columns
(recorded with Python 3.11, whose argparse layout they depend on).
"""

import contextlib
import hashlib
import io

import pytest

from partition_complex import cli

STDOUT_SHA256 = {
    "table --max-n 25":
        "aa25dd6b453f2052e64ada1c5afb608b0de7f347fd0f183cee8b01b9d1dabb2b",
    "table --max-n 25 --format csv":
        "02d83dcca6b070210db749544fdc8fe8a462ee8e25e07aa7f0d0d0d48852d4f8",
    "table --max-n 25 --format json":
        "70adf75aff26fdc2173215a75c1b570a8fd1df997b9be3687d9141d23af832f0",
    "table --max-n 120 --format json":
        "56df85d6b65ed91ced492f038e6443eee1f6a3195f53d52de90943016149f7d0",
    "export bfile chi --max-n 25":
        "96a2e2731fa8ebbc51eeccfb17fa31e7864931f82b3ba46b48a4c4a79b7571ea",
    "export bfile chi --max-n 200":
        "db0c35c8a8707037a25cf3f5c0496dcea6ba8419434f920c556a9eca79e63b6e",
    "export bfile b --max-n 200":
        "62608e523e1a39ce87172f061f9bf3b0b302ba21006eba3b1a22a551c9859bde",
    "verify --suite all --max-n 8 --seed 5":
        "d42ae2933f241e559784954f3230d9ef1b5001e20cb4ed1c97776e73cfa00c76",
    "verify --suite all --max-n 6 --seed 5 --format csv":
        "c7192cfd549106e39738060e79d23106c88d8d9203ab0a0c342da24f012aba4a",
    "verify --suite all --max-n 8 --seed 5 --format json":
        "38d32f9480d0911cee69fc133523a782279007ae63ffd8a532ae5d1e000d5181",
    "verify --suite triangles --suite cliques --suite anchors --suite heights"
    " --suite loops --max-n 12 --seed 3":
        "d01020992a0de9fd8cc3899f45931e1b23d5b0bb78be305251c5361c38dd7ad9",
    "verify --suite cover --max-n 16":
        "446721ff2e1a4ec191e337cae718746e38f6685ed7ff84446aaddad1b0351882",
    "verify --suite facets --suite nerve --suite poset --suite closure --max-n 16":
        "6ea0fd9323f6f0c2b0319b6a673adbdd7d4cf1cc14e7e80885dfa2c69e0ce1ca",
    "homology --n 12":
        "05a82c62a9df0a221f17333f9f09be42ac3c78aabc81d6e27a926c57c5013faa",
    "homology --n 12 --format json":
        "5477d9ff3cf8618c48fa17ab9d7178233befb092545a8781efdb2bc6fe38756a",
    "homology --n 24 --format json":
        "506cb177bf2f7164e79fe0638cb9e7274bda262762ff40ee22e3f57f12a61556",
    "export facets --n 12":
        "bb6cec9c6628806161ea743170c4683ccb73c11afeaa0c148000dc99640f4bad",
    "export graph --n 8 --format dimacs":
        "d64d7dc2131f81b47c6126a567be5b5afa3db77fec2f34f85ebd6d3278839ee5",
    "export graph --n 8 --format edges":
        "8b0a3ef326dd131369e0479d507c9ccd50379d6fd6e400c3f6bd95f89bb25bd6",
    "export poset --n 12 --format json":
        "8f753989de716b924f84014f84ca698f29934d9ed3da32cd179b252625a6b6a5",
    "export poset --n 12 --format text":
        "556ffba8498e5fda5043fab7a416c0ba8a5386152219a9ddceb2e1e3bbbb5dc6",
}


@pytest.mark.parametrize("command", sorted(STDOUT_SHA256))
def test_cli_stdout_is_unchanged(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_SHA256[command]


# Subcommand ("" for the top-level parser, "export <target>" for an export
# target) -> sha256 of its --help text.
HELP_SHA256 = {
    "": "fa2be51c6cdd89a1281d5e11ae1307857648888dbc3ea314bd7d406b2482d841",
    "table": "12578fcc4e288561ea038f0e959682e5da3a37dcb008097aae0eb685bbce294a",
    "verify": "c08487a34306378504cd20b81647f612484400c5e187af52967612ffbee97f5b",
    "homology": "6ea9fccb656cb1b5d9ce2dfea5e51b49eeefc3bab0d93bbf21a4306640d1cee5",
    "export": "789addd9866344045a89e64d0f8ee9eb467534cfc4443eef05298a373adb8a78",
    "export bfile": "ce21235172b34d562f0b43caec4c51f5c70ffdf6211ac362e18f017abe14f9b7",
    "export facets": "796ee10cefa038f468018a3f34318c7bff849f190b0f73cd6729003bb63baf75",
    "export graph": "d0a1c646a28ae58eea491c4b34eb1020698228615a58e8b58e508491b94118c2",
    "export poset": "5f02770c6fc442486ca727081bc1ba5f1788c433bc10307f4fa4fdca8bb4d4f9",
}


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_text_is_unchanged(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        cli.main(command.split() + ["--help"])
    assert exit_info.value.code == 0
    text = out.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_SHA256[command], text
