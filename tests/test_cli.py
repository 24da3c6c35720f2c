"""End-to-end tests of the command-line interface.

Every invocation goes through cli.main in-process so stdout and exit codes
are asserted exactly.  Usage errors surface as SystemExit(2) from argparse;
data errors return 2; a form outside the cone returns 1.
"""

from __future__ import annotations

import csv
import hashlib
import io

import pytest

from flagcone import ranksets
from flagcone.cli import main
from flagcone.cone import facet_system
from flagcone.intervals import IntervalSystem
from flagcone.poset import WitnessSpec, parse_poset, random_graded_poset, format_poset


def run(capsys, argv: list[str]) -> tuple[int, str]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write(path, text: str) -> str:
    path.write_text(text)
    return str(path)


BANKER = 'form rank=4\n"{1,3}" 1\n"{1}" -1\n"{2}" 1\n"{3}" -1\n'
NEGATIVE = 'form rank=3\n"{}" -1\n'


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

    def test_method_generate(self, capsys):
        code, out = run(capsys, ["extremes", "--rank", "4", "--method", "generate"])
        assert code == 0
        assert out.strip().splitlines()[-1] == "count=12"

    def test_method_both_reports_inclusion(self, capsys):
        code, out = run(capsys, ["extremes", "--rank", "3", "--method", "both"])
        assert code == 0
        assert "subset of dd output: ok" in out

    def test_rank6_needs_allow_slow(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["extremes", "--rank", "6"])
        assert exc.value.code == 2


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

    def test_rank_mismatch_is_error(self, capsys, tmp_path):
        path = write(tmp_path / "banker.form", BANKER)
        code, _ = run(capsys, ["check", "--rank", "5", "--form", path])
        assert code == 2

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
            got[ranksets.parse(label)] = int(value)
        for mask in range(8):
            assert got[mask] == spec.predicted_flag_number(mask)

    def test_n_cap(self, capsys):
        code, _ = run(
            capsys, ["witness", "--rank", "3", "--intervals", "empty", "--N", "65"]
        )
        assert code == 2

    def test_interval_count_cap(self, capsys):
        code, _ = run(
            capsys,
            [
                "witness",
                "--rank", "6",
                "--intervals", "[1,1]+[2,2]+[3,3]+[4,4]+[5,5]",
                "--N", "2",
            ],
        )
        assert code == 2

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

    def test_random_poset(self, capsys, tmp_path):
        P = random_graded_poset(4, seed=11)
        path = write(tmp_path / "r.poset", format_poset(P))
        code, out = run(capsys, ["partition", "--poset", path])
        assert code == 0
        assert "partition valid: yes" in out


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

    def test_rank6_needs_allow_slow(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["polar", "--rank", "6"])
        assert exc.value.code == 2

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
        argv = ["polar", "--rank", str(rank)]
        if rank >= 6:
            argv.append("--allow-slow")
        code, out = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

