"""End-to-end tests of the command-line interface.

Every invocation goes through cli.main in-process so stdout and exit codes
are asserted exactly.  Usage errors surface as SystemExit(2) from argparse;
data errors return 2; a form outside the cone returns 1.
"""

from __future__ import annotations

import csv
import hashlib
import io
import re
import time
from pathlib import Path

import pytest

from flagcone import cli, poset, ranksets
from flagcone.algebra import Form
from flagcone.cli import _h_text, main
from flagcone.cone import facet_system
from flagcone.intervals import IntervalSystem
from flagcone.poset import WitnessSpec, parse_poset, format_poset

from oracles import random_graded_poset


def run(capsys, argv: list[str]) -> tuple[int, str]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write(path, text: str) -> str:
    path.write_text(text)
    return str(path)


BANKER = 'form rank=4\n"{1,3}" 1\n"{1}" -1\n"{2}" 1\n"{3}" -1\n'
NEGATIVE = 'form rank=3\n"{}" -1\n'
DATA = Path(__file__).parent / "data"


class TestFacets:
    def test_table_rank3(self, capsys):
        code, out = run(capsys, ["facets", "--rank", "3"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "count 5"
        assert len(lines) == 6
        assert lines[0].split()[0] == "empty"

    def test_csv_round_trip(self, capsys):
        code, out = run(capsys, ["facets", "--rank", "4", "--format", "csv"])
        assert code == 0
        records = [r for r in csv.reader(io.StringIO(out)) if r]
        assert records[-1][0].startswith("# count=14")
        header, *rows = records[:-1]
        fs = facet_system(3)
        assert header == ["antichain"] + ranksets.labels(3)
        assert [r[0] for r in rows] == [str(s) for s, _ in fs.facets]
        for rec, (_, normal) in zip(rows, fs.facets):
            assert tuple(int(x) for x in rec[1:]) == normal.coords

    # SHA-256 of the whole stdout of `facets --rank R --format F`, so that
    # neither the facet order nor the rendering can change what facets prints.
    @pytest.mark.parametrize("rank, fmt, digest", [
        (1, "table", "629d11de614192c7ded02d3e122493519b94ab02cc9022823923c604d8937aca"),
        (1, "csv", "334a0c29205d1fb58d2848046b3155deaf773e1a7e7ab8b42ba71bdd8d785dc5"),
        (2, "table", "51484a77cdab30a2f13096d5a76c0ea6a0d41270ca0f137679d2dac247198cf5"),
        (2, "csv", "0f464d1a3a12adaa252b741b884578111867539bfe2ff24a1d71376a3fe1e23e"),
        (3, "table", "7c0b1e4d63e76b7365e2b383e2712e64b23c415a52565f3e4f1452a1d19b9ec3"),
        (3, "csv", "c7ac01074af05f17f943909eac1cfd95ef450ad5d1e59dbf665ded1e795355a8"),
        (4, "table", "18222b550cb1bc2ca55ff96fc7965bd674c4c294032f899c50e6fc6571dbd162"),
        (4, "csv", "a07c5d52d5727696be111762acc3d41e57985f3cb4a0d5631ac937c7ecb38dbc"),
        (5, "table", "69bc93e2156529755c96900d99bca46ca73f93d315753f7d9f8920d3821f481a"),
        (5, "csv", "a3c429815c26580427debeefdc76dba1430ab89ac7f3c65beaae6297c0666097"),
        (6, "table", "9ebb277a66a9bfe17446244b5ba125d7df4f1aaca9e7f3febbd007f08846512b"),
        (6, "csv", "29f2bc412883ec666fb6e826cfad11adf649e099fc6938945564c1214f5e63e1"),
    ])
    def test_stdout_digest(self, capsys, rank, fmt, digest):
        code, out = run(capsys, ["facets", "--rank", str(rank), "--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_rank_cap_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["facets", "--rank", "7"])
        assert exc.value.code == 2

    def test_rank_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["facets", "--rank", "0"])
        assert exc.value.code == 2


class TestExtremes:
    def test_rank4_listing(self, capsys):
        code, out = run(capsys, ["extremes", "--rank", "4"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 14
        footer = lines[-1]
        assert "new=1" in footer
        assert footer.startswith("count=13")
        assert sum("[new]" in ln for ln in lines[:-1]) == 1

    def test_h_basis_rank2(self, capsys):
        code, out = run(capsys, ["extremes", "--rank", "2", "--basis", "h"])
        assert code == 0
        rendered = {ln.split()[0] for ln in out.strip().splitlines()[:-1]}
        assert rendered == {"h{}", "h{1}"}
        assert _h_text(Form(3)) == "0"

    def test_method_generate(self, capsys):
        code, out = run(capsys, ["extremes", "--rank", "4", "--method", "generate"])
        assert code == 0
        assert out.strip().splitlines()[-1] == "count=12"

    def test_method_both_reports_inclusion(self, capsys):
        code, out = run(capsys, ["extremes", "--rank", "3", "--method", "both"])
        assert code == 0
        assert "subset of dd output: ok" in out

    @pytest.mark.parametrize("command", ["extremes", "polar"])
    def test_rank_cap(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--rank", "7"])
        assert exc.value.code == 2

    # Rank 6 once needed this flag; it is gone, so argparse rejects it.
    @pytest.mark.parametrize("command", ["extremes", "polar"])
    def test_removed_flag_is_unknown(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--rank", "6", "--allow-slow"])
        assert exc.value.code == 2

    # SHA-256 of the whole stdout of `extremes --rank R --method M --basis B`,
    # so that neither the enumeration nor the f- and h-basis rendering can
    # change what extremes prints.
    @pytest.mark.parametrize("rank, method, basis, digest", [
        (1, "dd", "f",
         "d01623f23d94ac9e036a2e3480025508d6ad9d631e107b907aabd32e528bcb74"),
        (1, "dd", "h",
         "b50426920b956aad8192564ca5b4e576658cca650b14841565cd2ebde96572e8"),
        (1, "generate", "f",
         "d17b21cbc64f7ff66b6c162e41eb33205eebfb54dc78a83f49e12fc7e10ec33a"),
        (1, "generate", "h",
         "5c2ce20a564d2fc92d063ffd3b50324a251a11ce2b7877b76e9e0a9f9e2476c3"),
        (1, "both", "f",
         "764e127a4a8e82dd817d97f1eed3aa27573803c49314d4cbcd0ea83b05468ce4"),
        (1, "both", "h",
         "e414a833bc82592d173ab161d925e266be9e5d11615e62268c6267788f2b5d4d"),
        (2, "dd", "f",
         "8c4bf99a3d24a3122f92d080f516da9c120a3fe4cce1cc37d1e2353683d7bf15"),
        (2, "dd", "h",
         "1c6b16be7499f7d26f28e6ba57588d4a10b603052401d0e3e58e2addd8f2f4ad"),
        (2, "generate", "f",
         "d17b21cbc64f7ff66b6c162e41eb33205eebfb54dc78a83f49e12fc7e10ec33a"),
        (2, "generate", "h",
         "5c2ce20a564d2fc92d063ffd3b50324a251a11ce2b7877b76e9e0a9f9e2476c3"),
        (2, "both", "f",
         "db04e6c616f709feebc5686418d4cd039b895c14144ca75c051e073eeed47523"),
        (2, "both", "h",
         "2a3b5b064eea3af17008af2d1c7eb21f52780119c25da197777f953d90e9d855"),
        (3, "dd", "f",
         "d454581a3b94704c1cc9eac6ec5446f658b18a7850173455f700385543f0a37d"),
        (3, "dd", "h",
         "b79ae329766a4f1a98c739ad9602a5f9ceefca2a194d1eccf237282b2fbe30a6"),
        (3, "generate", "f",
         "ab7df088d30f213d2ff2b0719ebb68f001226089f26176da9e4bb6a9c6c29be9"),
        (3, "generate", "h",
         "728f031826b175a8f88a9910e40ebd93ab9c8ef20f9790f1ca4f171f332c963a"),
        (3, "both", "f",
         "05fc59df38e1704883b643aff63b58dbe64b9e2530d8556a73d16c14ef3773f0"),
        (3, "both", "h",
         "9d5148322fe34e9c7fcd4d7565593fa8d5d6fa659a7f5ee7c8bd4fc88ae431a3"),
        (4, "dd", "f",
         "06dd995eb47d267e91c7e0874bb2fc8d72116c39b5f2c328ebd5bb6f87e5061d"),
        (4, "dd", "h",
         "19ef59e6a431d4e0f64867ce9cb245a17ac0b77046069c5ae6852239a0d5a7ca"),
        (4, "generate", "f",
         "f3b2b9018cb4d6d14b0994509c2c91291d2a8c59aa15c3e99ad9bed0c45e85ac"),
        (4, "generate", "h",
         "e3ae5d026075a68032dfc6279a85665276624711318c1408d2757ba0f2970ac4"),
        (4, "both", "f",
         "65029ede2e626475388c2d2aa813b9d53c696b0b537784887b2976f3c8629b77"),
        (4, "both", "h",
         "29370918aa03f2684e900945fda29ae2878c1cb8a3ec42c8ed9829510940ef69"),
        (5, "dd", "f",
         "3ef70d5acb004f045c545ff3fa79b35bca5249358a734ed35e36c3fc269c46ad"),
        (5, "dd", "h",
         "7dca610e176271ce100758aa02862ae57ac62f0076472249273353e17f41aef4"),
        (5, "generate", "f",
         "4525f2cd48f05d90ba2219372f5bb4a2be161d8ff357f4d989e8ecbc8726d406"),
        (5, "generate", "h",
         "c1e1d0b5149c77915c8c00ee1e2f3e2c303c34ae209ad57f451714bb1c8bf7ab"),
        (5, "both", "f",
         "1197b48df2765fe4d2d37de43f6a8c75833ac366843d751447dbe30f107b9934"),
        (5, "both", "h",
         "bacfd425d250abac6650c338f551d6c13c30e92e4ebd8d4bc5c43d68a885598d"),
        pytest.param(6, "dd", "f",
                     "dd44e3f882f751fb627f84a1fc21056d9c34f36f690a3f91b5eca778b6986ea4",
                     marks=pytest.mark.slow),
        pytest.param(6, "dd", "h",
                     "dcd2a69d5319d1708d74028fe0068eee6f6ecfeee24ed76ba8c664b0b86253ec",
                     marks=pytest.mark.slow),
        pytest.param(6, "generate", "f",
                     "5893d90c9786a8a94179d7452b89a8abf297488502f20f7c0ff54d33c951a72d",
                     marks=pytest.mark.slow),
        pytest.param(6, "generate", "h",
                     "8b761717ef6d2f1d05d7e28b18490a4cc2b0104e4f34dbbe40b238e3d28caa14",
                     marks=pytest.mark.slow),
        pytest.param(6, "both", "f",
                     "2f611fb22e4d5e1712c9f0758ee5582b0184b925d7f73d73da3182dd78347916",
                     marks=pytest.mark.slow),
        pytest.param(6, "both", "h",
                     "8f7ab12fc9d3a8f36c33f0719e059713f694d50f06b1ef578f17203de325d2a1",
                     marks=pytest.mark.slow),
    ])
    def test_stdout_digest(self, capsys, rank, method, basis, digest):
        argv = ["extremes", "--rank", str(rank), "--method", method, "--basis", basis]
        code, out = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCheck:
    def test_in_cone(self, capsys, tmp_path):
        path = write(tmp_path / "banker.form", BANKER)
        code, out = run(capsys, ["check", "--rank", "4", "--form", path])
        assert code == 0
        assert out.strip() == "in cone: yes"

    def test_not_in_cone_with_certificate(self, capsys, tmp_path):
        path = write(tmp_path / "neg.form", NEGATIVE)
        code, out = run(
            capsys, ["check", "--rank", "3", "--form", path, "--certificate"]
        )
        assert code == 1
        assert "in cone: no" in out
        assert "violated antichain: empty" in out
        assert "blocker sum: -1" in out
        assert "witness poset: rank=3 intervals=empty N=1" in out
        assert "witness evaluation: -1" in out

    def test_rank7_certificate_matches_committed_output(self, capsys):
        # A rank-7 form violating a five-interval antichain, with its
        # witness found at N = 8; CI diffs the installed command against
        # the same file.
        path = str(DATA / "outside-r7.form")
        code, out = run(capsys, ["check", "--rank", "7", "--form", path, "--certificate"])
        assert code == 1
        assert out == (DATA / "outside-r7.certificate").read_text()

    def test_certificate_without_witness(self, capsys, tmp_path):
        # Rank 3: no witness with N up to the search cap (CI diffs the
        # installed command against the committed file); rank 1: no
        # witness recipe exists.
        path = str(DATA / "nowitness-r3.form")
        code, out = run(capsys, ["check", "--rank", "3", "--form", path, "--certificate"])
        assert code == 1
        assert out == (DATA / "nowitness-r3.certificate").read_text() == (
            "in cone: no\n"
            "violated antichain: [1,2]\n"
            "blocker sum: -1\n"
            "witness poset: none for N up to 2^20 (antichain is conclusive)\n"
        )
        path = write(tmp_path / "neg1.form", 'form rank=1\n"{}" -1\n')
        code, out = run(capsys, ["check", "--rank", "1", "--form", path, "--certificate"])
        assert code == 1
        assert out == (
            "in cone: no\n"
            "violated antichain: empty\n"
            "blocker sum: -1\n"
            "witness poset: none, rank 1 has no witness recipe"
            " (antichain is conclusive)\n"
        )

    def test_rank7_in_cone_with_fractions(self, capsys):
        # A rank-7 form in the cone with non-integer coefficients, so the
        # projection recursion clears denominators and runs to the end; CI
        # runs the installed command on the same file.
        path = str(DATA / "inside-r7.form")
        code, out = run(capsys, ["check", "--rank", "7", "--form", path])
        assert code == 0
        assert out.strip() == "in cone: yes"

    def test_rank_mismatch_is_error(self, capsys, tmp_path):
        path = write(tmp_path / "banker.form", BANKER)
        assert main(["check", "--rank", "5", "--form", path]) == 2
        assert capsys.readouterr() == (
            "", "error: form has rank 4, --rank says 5\n"
        )

    @pytest.mark.parametrize("rank", [22, 40])
    def test_form_rank_above_the_dense_cap_is_error(self, capsys, tmp_path, rank):
        # A form file's header rank sizes its dense vector, so a rank above
        # 21 is refused before --rank is compared, not allocated.
        path = write(tmp_path / "huge.form", f'form rank={rank}\n"{{1}}" 1\n')
        assert main(["check", "--rank", "7", "--form", path]) == 2
        assert capsys.readouterr() == ("", f"error: ambient {rank - 1} > 20\n")

    def test_membership_disagreement_is_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "contains_by_projection", lambda F: False)
        path = write(tmp_path / "banker.form", BANKER)
        assert main(["check", "--rank", "4", "--form", path]) == 2
        assert capsys.readouterr() == ("", "error: membership algorithms disagree\n")

    def test_repeated_term_line_is_error(self, capsys, tmp_path):
        # Two lines for {1} used to add up to 2*f{1}, a form in the cone.
        path = write(tmp_path / "twice.form", 'form rank=3\n"{1}" 1\n"{1}" 1\n')
        assert main(["check", "--rank", "3", "--form", path]) == 2
        assert capsys.readouterr() == (
            "", "error: repeated term line '\"{1}\" 1'\n"
        )

    @pytest.mark.parametrize("text, message", [
        ("form rank=+0_4\n{1} 1\n", "bad header 'form rank=+0_4'"),
        ("form rank=\u0664\n{1} 1\n", "bad header 'form rank=\u0664'"),
        ("form rank=4\n{1} 1_000\n", "bad term line '{1} 1_000'"),
        ("form rank=4\n{1} 0.5\n", "bad term line '{1} 0.5'"),
    ])
    def test_non_ascii_integer_in_form_file_is_error(self, capsys, tmp_path, text, message):
        # These used to read as rank 4 or as 1000 and 1/2, depending on the
        # Python version.
        path = write(tmp_path / "odd.form", text)
        assert main(["check", "--rank", "4", "--form", path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_zero_denominator_in_form_file_is_error(self, capsys, tmp_path):
        # Fraction(1, 0) used to escape as a ZeroDivisionError naming no line.
        path = write(tmp_path / "zero.form", 'form rank=4\n"{1}" 1/0\n')
        assert main(["check", "--rank", "4", "--form", path]) == 2
        assert capsys.readouterr() == ("", "error: bad term line '\"{1}\" 1/0'\n")

    @pytest.mark.parametrize("name, argv, message", [
        ("bigrank.form", ["check", "--rank", "3", "--form"],
         "rank set {100000000} not within [1,2]"),
        ("bigrank.poset", ["fvector", "--poset"], "'a' has no upper cover"),
    ])
    def test_huge_rank_in_file_is_error_at_once(self, capsys, name, argv, message):
        # The form file used to run for hours and the poset file to take
        # 323 MB before its error; CI runs the installed command on both.
        start = time.perf_counter()
        assert main([*argv, str(DATA / name)]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("kind, argv, record", [
        ("form", ["check", "--rank", "3", "--form"], '"{1}" 1'),
        ("poset", ["fvector", "--poset"], "elem a 0"),
    ])
    @pytest.mark.parametrize("text, message", [
        ("{record}\n{kind} rank=3\n", "line {record!r} before {kind} header"),
        ("{kind} rank=3\n{kind} rank=3\n", "repeated {kind} header"),
        ("# {kind} rank=3\n\n", "missing {kind} header"),
    ])
    def test_header_errors_are_parallel(self, capsys, tmp_path, kind, argv, record, text, message):
        path = write(tmp_path / f"odd.{kind}", text.format(kind=kind, record=record))
        assert main([*argv, path]) == 2
        assert capsys.readouterr() == ("", f"error: {message.format(kind=kind, record=record)}\n")

    def test_non_ascii_elem_rank_is_error(self, capsys, tmp_path):
        path = write(tmp_path / "odd.poset", "poset rank=2\nelem a 0\nelem c 0_2\n")
        assert main(["fvector", "--poset", path]) == 2
        assert capsys.readouterr() == ("", "error: bad elem line 'elem c 0_2'\n")

    def test_repeated_rank_in_form_file_is_error(self, capsys, tmp_path):
        path = write(tmp_path / "twice.form", 'form rank=3\n"{1,1}" 1\n')
        assert main(["check", "--rank", "3", "--form", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad rank-set literal '\"{1,1}\"'\n"

    def test_missing_file_is_error(self, capsys, tmp_path):
        code, _ = run(
            capsys, ["check", "--rank", "4", "--form", str(tmp_path / "nope")]
        )
        assert code == 2

    def test_rank_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--rank", "8", "--form", "whatever"])
        assert exc.value.code == 2


class TestWitnessAndFvector:
    def test_round_trip_matches_closed_form(self, capsys, tmp_path):
        poset_path = str(tmp_path / "w.poset")
        code, out = run(
            capsys,
            [
                "witness",
                "--rank", "4",
                "--intervals", "[1,2]+[2,3]",
                "--N", "3",
                "--emit-poset", poset_path,
            ],
        )
        assert code == 0
        assert "closed form matches: yes" in out

        code2, out2 = run(capsys, ["fvector", "--poset", poset_path])
        assert code2 == 0
        lines = out2.strip().splitlines()
        assert lines[0] == "fvector rank=4"
        spec = WitnessSpec(3, IntervalSystem.parse("[1,2]+[2,3]", 3), 3)
        got = {}
        for ln in lines[1:]:
            label, value = ln.rsplit(" ", 1)
            got[ranksets.parse(label, 3)] = int(value)
        for mask in range(8):
            assert got[mask] == spec.predicted_flag_number(mask)

    def test_n_cap(self, capsys):
        assert main(["witness", "--rank", "3", "--intervals", "empty", "--N", "65"]) == 2
        assert capsys.readouterr() == ("", "error: N = 65 exceeds the cap 64\n")

    def test_interval_count_cap(self, capsys):
        code = main([
            "witness",
            "--rank", "6",
            "--intervals", "[1,1]+[2,2]+[3,3]+[4,4]+[5,5]",
            "--N", "2",
        ])
        assert code == 2
        assert capsys.readouterr() == ("", "error: 5 intervals exceed the cap 4\n")

    @pytest.mark.parametrize("rank, intervals, N, size", [
        (10, "[1,9]+[2,8]", 64, 28802),
        (10, "[1,9]+[1,8]+[2,9]+[2,8]", 8, 28802),
        (10, "[1,9]+[1,8]+[2,9]+[2,8]", 64, 7 * 64**4 + 2 * 64**2 + 2),
        (3, "[1,2]+[1,1]", 64, 4162),
    ])
    def test_element_cap(self, capsys, monkeypatch, rank, intervals, N, size):
        # Level i has N ** (number of intervals holding i) elements; a spec
        # above the cap is refused before any poset is built.
        def boom(spec):
            raise AssertionError("witness poset built")

        monkeypatch.setattr(cli, "witness_poset", boom)
        monkeypatch.setattr(poset, "witness_poset", boom)
        argv = ["witness", "--rank", str(rank), "--intervals", intervals, "--N", str(N)]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: the witness poset would have {size} elements, "
            "above the cap 4096\n"
        )

    def test_element_cap_admits_its_bound(self, capsys):
        # 2 + 63**2 + 63 = 4034 elements, the largest at this rank below
        # the cap; the element line reports the same count.
        argv = ["witness", "--rank", "3", "--intervals", "[1,2]+[1,1]", "--N", "63"]
        code, out = run(capsys, argv)
        assert code == 0
        assert "elements=4034 " in out
        assert out.endswith("closed form matches: yes\n")

    def test_rank1_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["witness", "--rank", "1", "--intervals", "empty", "--N", "2"])
        assert exc.value.code == 2

    def test_bad_interval_expr(self, capsys):
        code, _ = run(
            capsys, ["witness", "--rank", "3", "--intervals", "garbage", "--N", "2"]
        )
        assert code == 2


class TestPartition:
    def test_witness_poset_partitions(self, capsys, tmp_path):
        poset_path = str(tmp_path / "w.poset")
        run(
            capsys,
            [
                "witness",
                "--rank", "3",
                "--intervals", "[1,1]",
                "--N", "2",
                "--emit-poset", poset_path,
            ],
        )
        code, out = run(capsys, ["partition", "--poset", poset_path])
        assert code == 0
        assert "partition valid: yes" in out
        assert "MISMATCH" not in out
        chain_lines = [ln for ln in out.splitlines() if ln.startswith("chain ")]
        P = parse_poset((tmp_path / "w.poset").read_text())
        assert len(chain_lines) == len(P.maximal_chains())

    def test_rank7_witness_digest(self, capsys, tmp_path):
        # The 4,096-chain rank-7 witness, 499,900 bytes of stdout pinned
        # byte for byte: class lines, then every chain with its system.
        path = str(tmp_path / "w16.poset")
        run(capsys, ["witness", "--rank", "7", "--intervals", "[1,2]+[3,4]+[5,6]",
                     "--N", "16", "--emit-poset", path])
        code, out = run(capsys, ["partition", "--poset", path])
        assert code == 0
        assert len(out.encode()) == 499900
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "24884a2d0e5643382450d4b16e2bbdfc4aa9cb5a2231af6cf046e6ca1d12df69")

    def test_random_poset(self, capsys, tmp_path):
        P = random_graded_poset(4, seed=11)
        path = write(tmp_path / "r.poset", format_poset(P))
        code, out = run(capsys, ["partition", "--poset", path])
        assert code == 0
        assert "partition valid: yes" in out

    def test_wide_witness_digest(self, capsys, tmp_path):
        # The 4,034-element rank-3 witness: its bottom has 3,969 covers,
        # and its 3,969 chains are pinned byte for byte.
        path = str(tmp_path / "wide.poset")
        run(capsys, ["witness", "--rank", "3", "--intervals", "[1,2]+[1,1]",
                     "--N", "63", "--emit-poset", path])
        code, out = run(capsys, ["partition", "--poset", path])
        assert code == 0
        assert len(out.splitlines()) == 3974
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3d778d0090cd34cab73efe57b2706d35291db2b925f50871f40a1abea7bdb5e9")

    @staticmethod
    def complete_levels(rank: int) -> str:
        """Poset file: two elements per proper level, each level joined to
        the next by every cover, so 2 ** (rank - 1) maximal chains."""
        levels = [["0"]] + [[f"a{r}", f"b{r}"] for r in range(1, rank)] + [["1"]]
        lines = [f"poset rank={rank}"]
        lines += [f"elem {x} {r}" for r, lvl in enumerate(levels) for x in lvl]
        lines += [f"cover {x} {y}" for lo, hi in zip(levels, levels[1:])
                  for x in lo for y in hi]
        return "\n".join(lines) + "\n"

    @staticmethod
    def forbid_chains(monkeypatch):
        def boom(*args):
            raise AssertionError("maximal chains enumerated")

        monkeypatch.setattr(cli, "partition_classes", boom)
        monkeypatch.setattr(poset.GradedPoset, "maximal_chains", boom)

    @pytest.mark.parametrize("source, chains, rank_sets", [
        ("witness", 64**4, 2**9),
        ("complete", 2**13, 2**13),
    ])
    def test_work_cap(self, capsys, monkeypatch, tmp_path, source, chains, rank_sets):
        # Chains times 2 ** (rank - 1) is checked right after the flag
        # vector, before any chain is enumerated.  The rank-10 witness is
        # one the witness command emits (578 elements).
        path = str(tmp_path / "big.poset")
        if source == "witness":
            run(capsys, ["witness", "--rank", "10", "--intervals",
                         "[1,2]+[3,4]+[5,6]+[7,9]", "--N", "64", "--emit-poset", path])
        else:
            write(tmp_path / "big.poset", self.complete_levels(14))
        self.forbid_chains(monkeypatch)
        assert main(["partition", "--poset", path]) == 2
        assert capsys.readouterr() == (
            "", f"error: {chains} maximal chains times {rank_sets} rank sets "
            "exceed the partition cap 1048576\n")

    def test_work_cap_is_inclusive(self, capsys, monkeypatch, tmp_path):
        # Rank 4: 8 chains times 8 rank sets is 64.
        path = write(tmp_path / "r4.poset", self.complete_levels(4))
        monkeypatch.setattr(cli, "PARTITION_WORK_CAP", 64)
        code, out = run(capsys, ["partition", "--poset", path])
        assert code == 0
        assert "partition valid: yes" in out
        monkeypatch.setattr(cli, "PARTITION_WORK_CAP", 63)
        self.forbid_chains(monkeypatch)
        assert main(["partition", "--poset", path]) == 2
        assert capsys.readouterr().err == (
            "error: 8 maximal chains times 8 rank sets exceed the partition cap 63\n")

    def test_work_cap_admits_its_bound(self, capsys, tmp_path):
        # 16 ** 4 chains times 2 ** 4 rank sets is exactly the cap.
        path = str(tmp_path / "r5.poset")
        run(capsys, ["witness", "--rank", "5", "--intervals", "[1,1]+[2,2]+[3,3]+[4,4]",
                     "--N", "16", "--emit-poset", path])
        code, out = run(capsys, ["partition", "--poset", path])
        assert code == 0
        assert "partition valid: yes" in out
        assert out.count("\nchain ") == 16**4


class TestRankSetBound:
    # fvector and partition enumerate all 2**(rank - 1) rank sets, so a
    # rank-30 poset is refused before any enumeration starts.
    CHAIN = "poset rank=30\n" + "".join(
        f"elem {r} {r}\n" + (f"cover {r - 1} {r}\n" if r else "") for r in range(31))

    @pytest.mark.parametrize("command", ["fvector", "partition"])
    def test_rank30_chain_exits_2(self, capsys, tmp_path, command):
        path = write(tmp_path / "chain.poset", self.CHAIN)
        assert main([command, "--poset", path]) == 2
        assert capsys.readouterr() == ("", "error: ambient 29 > 20\n")


class TestPolar:
    def test_rank2(self, capsys):
        code, out = run(capsys, ["polar", "--rank", "2"])
        assert code == 0
        assert "generators (2):" in out
        assert "facets (2):" in out
        assert "facet count equals extreme-ray count (2): yes" in out

    def test_rank4_cross_count(self, capsys):
        code, out = run(capsys, ["polar", "--rank", "4"])
        assert code == 0
        assert "generators (14):" in out
        assert "facets (13):" in out
        assert "facet count equals extreme-ray count (13): yes" in out

    # SHA-256 of the whole stdout of `polar --rank R`, so that a change in
    # how the facets are computed cannot change what polar prints.
    @pytest.mark.parametrize("rank, digest", [
        (1, "8f8542374ba8b530f25621ebefda523b3c321b76ae4b9fb74cd712226fc15534"),
        (2, "564b6c4fc4020ada3143e07d4d02e3424976bd5488404329c98ecfd76022dc9b"),
        (3, "812757f30f825d4e8dc1af07eb892e621ae8f00344f06933d5e5411838262070"),
        (4, "b706dd05fcf11143db611d4614ea44d2b5d65402c8fed100a376471188ea4522"),
        (5, "8d625873783c2857ce26c153885243f72700ef52cf5a2fd9f2192a8132293214"),
        pytest.param(
            6, "3c964bf9beab37cec4d2624fdd071c90ddc918d036ac629e51a249ce2046f740",
            marks=pytest.mark.slow),
    ])
    def test_stdout_digest(self, capsys, rank, digest):
        code, out = run(capsys, ["polar", "--rank", str(rank)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest



class TestRankRange:
    # The range `--help` prints for --rank is the range main enforces.  The
    # subcommand itself is replaced by a stub, so only the check runs.
    REQUIRED = {
        "facets": [],
        "extremes": [],
        "check": ["--form", "unused"],
        "witness": ["--intervals", "empty", "--N", "2"],
        "polar": [],
    }

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_help_range_is_enforced(self, capsys, monkeypatch, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        found = re.search(r"poset\s+rank,\s+(\d+)\s+to\s+(\d+)", capsys.readouterr().out)
        low, high = int(found[1]), int(found[2])
        assert 1 <= low < high

        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: 0)
        extra = self.REQUIRED[command]
        for rank in (low, high):
            assert main([command, "--rank", str(rank)] + extra) == 0
        for rank in (low - 1, high + 1):
            with pytest.raises(SystemExit) as exc:
                main([command, "--rank", str(rank)] + extra)
            assert exc.value.code == 2
            assert f"between {low} and {high}" in capsys.readouterr().err
